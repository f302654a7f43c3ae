"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
Tolerances are pinned here and nowhere else; every expected number is
either closed-form, hand-enumerable, or frozen from an independent
high-precision recomputation (mpmath quadrature for distribution
tails).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from actreg.analysis import analyze_records
from actreg.cli import gradcheck_zoo, main
from actreg.datasets import find_idx_files, load_idx_dataset, synth_blobs
from actreg.models import ModelSpec, param_count_for
from actreg.power import PowerSample, integrate
from actreg.records import load_records
from actreg.rng import make_generator
from actreg.stats import (bootstrap_ci, linear_fit, one_way_anova,
                          two_way_anova_type2, wilcoxon_signed_rank)
from actreg.sweep import run_lambda_sweep


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


# criterion 1: every architecture differentiates exactly -----------------

def test_c1_gradients_beat_1e4_for_every_architecture_and_lambda():
    budget_s = 30.0
    t0 = time.perf_counter()
    results = gradcheck_zoo()
    elapsed = time.perf_counter() - t0
    worst = max(err for _, _, err in results)
    archs = {arch for arch, _, _ in results}
    ok = (worst < 1e-4 and archs == {"bimodal", "physics", "mlp", "cnn"}
          and len(results) == 12 and elapsed < budget_s)
    _verdict("1 gradcheck", ok,
             f"12 cases, worst rel err {worst:.2e} (< 1e-4), "
             f"{elapsed:.1f}s (< {budget_s:.0f}s)")


# criterion 2: the regularizer works on synthetic data -------------------

def test_c2_lambda_sweep_suppresses_energy_without_accuracy_loss():
    budget_s = 300.0
    t0 = time.perf_counter()
    data = synth_blobs(classes=4, dim=32, n_per_class=500, separation=1.0,
                       seed=2024)
    report = run_lambda_sweep(data, ModelSpec("mlp", 32, 64, 4),
                              lambdas=(0.0, 1e-5, 1e-4, 1e-3, 1e-2),
                              seeds=(42, 123, 456), lr=5e-3, batch_size=32,
                              epochs=5, weight_decay=0.0)
    elapsed = time.perf_counter() - t0
    rows = sorted(report.rows, key=lambda r: r.lam)
    rel = [r.relative_energy for r in rows]
    acc = [r.mean_accuracy for r in rows]
    strictly_decreasing = all(a > b for a, b in zip(rel, rel[1:]))
    suppressed = rel[-1] <= 0.05
    acc_held = max(acc[0] - a for a in acc) <= 0.02
    complete = all(r.seeds_ok == 3 for r in rows) and not report.failed
    ok = (strictly_decreasing and suppressed and acc_held and complete
          and elapsed < budget_s)
    _verdict("2 synthetic sweep", ok,
             f"relative energy {['%.3f' % r for r in rel]} strictly "
             f"decreasing={strictly_decreasing}, final {rel[-1]:.3f} "
             f"(<= 0.05), worst accuracy drop "
             f"{max(acc[0] - a for a in acc) * 100:.2f}pp (<= 2pp), "
             f"{elapsed:.0f}s (< {budget_s:.0f}s)")


# criterion 3: the regularizer works on real images (optional data) ------

def _mnist_dir():
    override = os.environ.get("ACTREG_MNIST_DIR")
    candidates = [override] if override else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for cand in candidates:
        if cand and find_idx_files(cand):
            return cand
    return None


def test_c3_mnist_sweep_when_data_is_present():
    where = _mnist_dir()
    if where is None:
        print("\nACCEPTANCE 3 mnist sweep: SKIP - no IDX data found "
              "(set ACTREG_MNIST_DIR or place files under data/mnist)")
        pytest.skip("MNIST IDX files not available")
    data = load_idx_dataset(where, name="mnist")
    report = run_lambda_sweep(data, ModelSpec("mlp", data.input_dim, 64,
                                              data.classes),
                              lambdas=(0.0, 1e-2), seeds=(42, 123, 456),
                              lr=1e-3, batch_size=128, epochs=5,
                              weight_decay=0.0)
    rows = {r.lam: r for r in report.rows}
    rel = rows[1e-2].relative_energy
    drop = rows[0.0].mean_accuracy - rows[1e-2].mean_accuracy
    ok = rel <= 0.01 and drop <= 0.01
    _verdict("3 mnist sweep", ok,
             f"relative energy {rel:.4f} (<= 0.01), accuracy drop "
             f"{drop * 100:.2f}pp (<= 1pp)")


# criterion 4: parameter counts match the published sizes ----------------

def test_c4_parameter_counts():
    budget_s = 1.0
    t0 = time.perf_counter()
    exact = {
        ("bimodal", 784, 10, 1.0): 3_727_370,
        ("bimodal", 5000, 20, 1.0): 12_382_228,
        ("mlp", 784, 10, None): 1_863_690,
        ("mlp", 5000, 20, None): 6_191_124,
    }
    mism = []
    for (arch, i, o, g), want in exact.items():
        got = param_count_for(ModelSpec(arch, i, 1024, o, glia_ratio=g))
        if got != want:
            mism.append(f"{arch}/{i}: {got} != {want}")
    # published-rounding bands, nearest thousand
    banded = {
        ("bimodal", 700, 10, 1.0): 3_555_000,
        ("physics", 784, 10, None): 3_470_000,
        ("physics", 5000, 20, None): 16_432_000,
        ("physics", 700, 10, None): 3_212_000,
        ("mlp", 700, 10, None): 1_778_000,
    }
    for (arch, i, o, g), center in banded.items():
        got = param_count_for(ModelSpec(arch, i, 1024, o, glia_ratio=g))
        if abs(got - center) > 500:
            mism.append(f"{arch}/{i}: {got} not within 0.5K of {center}")
    small = param_count_for(ModelSpec("bimodal", 2, 4, 2, glia_ratio=0.5))
    if small != 58:
        mism.append(f"toy bimodal: {small} != 58")
    elapsed = time.perf_counter() - t0
    ok = not mism and elapsed < budget_s
    _verdict("4 parameter counts", ok,
             f"4 exact + 5 banded + toy all match in {elapsed * 1000:.0f}ms"
             if not mism else "; ".join(mism))


# criterion 5: energy integration is analytically exact ------------------

def test_c5_power_integration_exactness():
    def tr(points):
        return [PowerSample(t, w, "training") for t, w in points]

    checks = [
        (integrate(tr([(0, 100), (5, 100), (10, 100)])).joules, 1000.0),
        (integrate(tr([(0, 0), (10, 100)])).joules, 500.0),
        (integrate(tr([(0, 0), (5, 100), (10, 0)])).joules, 500.0),
    ]
    errs = [abs(got - want) for got, want in checks]
    degenerate_ok = (integrate([]).joules == 0.0
                     and integrate(tr([(3, 50)])).joules == 0.0
                     and integrate([]).sample_count == 0)
    ok = max(errs) <= 1e-9 and degenerate_ok
    _verdict("5 power integration", ok,
             f"constant/ramp/triangle errors {['%.1e' % e for e in errs]} "
             f"(<= 1e-9), under-2-sample reports zero={degenerate_ok}")


# criterion 6: the statistics agree with independent oracles -------------

def test_c6_statistics_against_oracles():
    budget_s = 120.0
    t0 = time.perf_counter()
    problems = []

    # one-way fixture {1,2},{3,4},{5,6}: SSB/SSW worked by hand give
    # F = (16/2)/(1.5/3) = 16 exactly; the tail of F(2,3) at 16 was
    # recomputed by direct mpmath quadrature of the density
    a = one_way_anova({"g1": [1, 2], "g2": [3, 4], "g3": [5, 6]})
    if a.f != 16.0:
        problems.append(f"one-way F {a.f!r} != 16.0")
    if abs(a.p - 0.025094573304390855) > 1e-3:
        problems.append(f"one-way p {a.p} off the quadrature value")

    # two groups: F must equal the pooled t statistic squared
    gen = make_generator(6)
    x, y = list(gen.normal(size=10)), list(gen.normal(loc=0.5, size=13))
    f2 = one_way_anova({"x": x, "y": y}).f
    nx, ny = len(x), len(y)
    sp2 = ((nx - 1) * np.var(x, ddof=1) + (ny - 1) * np.var(y, ddof=1)) / (nx + ny - 2)
    t_stat = (np.mean(x) - np.mean(y)) / np.sqrt(sp2 * (1 / nx + 1 / ny))
    if abs(f2 - t_stat ** 2) > 1e-9:
        problems.append(f"two-group F {f2} != t^2 {t_stat ** 2}")

    # balanced two-way must reproduce the textbook cell-means split
    cells = {("a1", "b1"): [4.1, 3.9, 4.0], ("a1", "b2"): [6.2, 5.8, 6.0],
             ("a2", "b1"): [5.1, 4.9, 5.0], ("a2", "b2"): [9.0, 9.2, 8.8]}
    rows = [(a_, b_, v) for (a_, b_), vs in cells.items() for v in vs]
    grand = np.mean([v for _, _, v in rows])
    ma = {k: np.mean([v for a_, _, v in rows if a_ == k]) for k in ("a1", "a2")}
    mb = {k: np.mean([v for _, b_, v in rows if b_ == k]) for k in ("b1", "b2")}
    mc = {k: np.mean(v) for k, v in cells.items()}
    ss_a = 6 * sum((m - grand) ** 2 for m in ma.values())
    ss_b = 6 * sum((m - grand) ** 2 for m in mb.values())
    ss_ab = 3 * sum((mc[(ak, bk)] - ma[ak] - mb[bk] + grand) ** 2
                    for ak in ma for bk in mb)
    ss_err = sum((v - mc[(ak, bk)]) ** 2 for ak, bk, v in rows)
    mse = ss_err / 8
    want_f = {"A": ss_a / mse, "B": ss_b / mse, "A:B": ss_ab / mse}
    for source in two_way_anova_type2(rows):
        if abs(source.f - want_f[source.source]) > 1e-9:
            problems.append(f"two-way {source.source} F {source.f} != "
                            f"{want_f[source.source]}")

    # all-positive n = 6 signed ranks: exact two-sided p is 1/32
    w = wilcoxon_signed_rank([0.3, 0.9, 1.4, 2.2, 3.1, 4.0])
    if w.p != 1.0 / 32.0 or w.method != "exact":
        problems.append(f"wilcoxon p {w.p} != 1/32 ({w.method})")

    # bootstrap percentile intervals cover a known mean near 95%
    hits = 0
    trials = 500
    for trial in range(trials):
        sample = make_generator(9_000 + trial).normal(size=30)
        ci = bootstrap_ci(sample, rng=make_generator(40_000 + trial))
        hits += ci.lower <= 0.0 <= ci.upper
    coverage = hits / trials
    if not 0.90 <= coverage <= 0.98:
        problems.append(f"bootstrap coverage {coverage:.3f} outside [.90, .98]")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget_s
    _verdict("6 statistics oracles", ok,
             f"F=16 exact, p/quadrature, t^2, cell-means two-way, "
             f"wilcoxon 1/32, coverage {coverage:.3f}, "
             f"{elapsed:.0f}s (< {budget_s:.0f}s)"
             if not problems else "; ".join(problems))


# criterion 7: scaling fits recover a noiseless law ----------------------

def test_c7_linear_fit_recovers_known_coefficients():
    x = [0.1, 0.5, 1.0, 1.4, 2.0, 3.0, 5.0]
    y = [0.68 * xi + 0.12 for xi in x]
    fit = linear_fit(x, y)
    errs = (abs(fit.slope - 0.68), abs(fit.intercept - 0.12),
            abs(fit.r_squared - 1.0))
    ok = max(errs) <= 1e-12
    _verdict("7 linear fit", ok,
             f"slope/intercept/R^2 errors {['%.1e' % e for e in errs]} "
             f"(<= 1e-12)")


# criterion 8: identical runs produce identical records ------------------

def test_c8_run_determinism(tmp_path):
    argv = ["run", "--classes", "3", "--feature-dim", "8", "--per-class",
            "40", "--hidden-dim", "12", "--max-epochs", "3", "--patience",
            "3", "--seed", "5"]
    assert main(argv + ["--records-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--records-dir", str(tmp_path / "b")]) == 0
    (rec_a,), _ = load_records(tmp_path / "a")
    (rec_b,), _ = load_records(tmp_path / "b")
    da, db = rec_a.to_json_dict(), rec_b.to_json_dict()
    volatile = ("training_duration_seconds", "hardware")
    for key in volatile:
        da.pop(key), db.pop(key)
    diffs = [k for k in da if da[k] != db[k]]
    ok = not diffs and rec_a.training_duration_seconds > 0
    _verdict("8 determinism", ok,
             "all fields identical except wall clock and hardware"
             if not diffs else f"fields differ: {diffs}")


# criterion 9: analysis ingests our records and foreign logs -------------

def test_c9_analyze_mixed_record_sources(tmp_path):
    # our own records, written through the normal pipeline
    for arch in ("mlp", "bimodal"):
        for seed in ("1", "2", "3"):
            code = main(["run", "--classes", "3", "--feature-dim", "8",
                         "--per-class", "40", "--hidden-dim", "10",
                         "--max-epochs", "2", "--patience", "2",
                         "--arch", arch, "--seed", seed,
                         "--records-dir", str(tmp_path)])
            assert code == 0

    # plus externally produced logs: same schema, snake_case keys,
    # plus collector-specific extras we have never seen
    gen = make_generator(123)
    n_foreign = 200
    for k in range(n_foreign):
        arch = ("mlp", "bimodal")[k % 2]
        dataset = ("synth", "imgsmall")[(k // 2) % 2]
        rec = {
            "architecture": arch, "dataset": dataset,
            "hidden_dim": 10, "input_dim": 8, "output_dim": 3,
            "glia_ratio": 1.0 if arch == "bimodal" else None,
            "activations": ["relu"], "lr": 0.001, "batch_size": 32,
            "weight_decay": 0.0, "lambda": 0.0, "max_epochs": 2,
            "patience": 2, "epochs_run": 2, "seed": 100 + k,
            "status": "ok",
            "test_accuracy": float(np.clip(0.8 + 0.05 * gen.standard_normal()
                                           + 0.03 * (arch == "bimodal"), 0, 1)),
            "test_loss": float(abs(gen.normal(0.5, 0.1))),
            "activation_energy": float(abs(gen.normal(80, 10))),
            "energy_mj_total": None, "energy_mj_per_correct": None,
            "training_duration_seconds": float(abs(gen.normal(3, 1))),
            "hardware": "riscv;fleet-node", "param_count": 253,
            "collector": "fleetd/2.1", "site": f"rack{k % 7}",
            "ambient_c": float(gen.normal(21, 2)),
        }
        (tmp_path / f"foreign_{k:03d}.json").write_text(json.dumps(rec))

    records, issues = load_records(tmp_path)
    parse_rate = len(records) / (6 + n_foreign)
    tables = analyze_records(records, response="test_accuracy")
    has_anova = any("anova" in t.title for t in tables)
    round_trip = sum(1 for r in records if r.extra.get("collector"))
    ok = parse_rate >= 0.99 and not issues and has_anova and round_trip == n_foreign
    _verdict("9 record ingestion", ok,
             f"parsed {len(records)}/{6 + n_foreign} ({parse_rate:.1%}), "
             f"extras preserved on {round_trip}, anova table "
             f"emitted={has_anova}")
