"""Record analysis: dispatch rules, table rendering, parameter table."""

import pytest

from actreg import stats
from actreg.analysis import RESPONSES, Table, analyze_records, parameter_count_table
from actreg.errors import ValidationError
from actreg.models import ModelSpec, param_count_for
from actreg.records import ExperimentRecord
from actreg.rng import make_generator
from actreg.stats import bootstrap_ci


def _record(arch="mlp", dataset="synth", seed=0, accuracy=0.9, **overrides):
    base = dict(architecture=arch, dataset=dataset, hidden_dim=16,
                input_dim=8, output_dim=3, lr=1e-3, batch_size=32,
                lam=0.0, max_epochs=5, patience=5, epochs_run=5, seed=seed,
                status="ok", test_accuracy=accuracy, test_loss=0.4,
                activation_energy=100.0, param_count=1000)
    base.update(overrides)
    return ExperimentRecord(**base)


def _batch(arches, datasets, n_seeds, jitter=0.02):
    gen = make_generator(77)
    records = []
    for ai, arch in enumerate(arches):
        for dataset in datasets:
            for seed in range(n_seeds):
                acc = 0.70 + 0.05 * ai + jitter * gen.standard_normal()
                records.append(_record(arch, dataset, seed, float(acc)))
    return records


def test_two_arch_one_dataset_runs_one_way():
    tables = analyze_records(_batch(["mlp", "bimodal"], ["synth"], 10))
    titles = [t.title for t in tables]
    assert any("one-way" in t for t in titles)
    assert not any("two-way" in t for t in titles)
    anova = tables[0]
    assert "F" in anova.headers or "f" in [h.lower() for h in anova.headers]


def test_factorial_runs_two_way_with_effect_sizes():
    records = _batch(["mlp", "bimodal"], ["synth", "blobs2"], 5)
    tables = analyze_records(records)
    anova = tables[0]
    assert "two-way" in anova.title
    assert "partial_eta2" in anova.headers
    # three sources: architecture, dataset, interaction
    assert len(anova.rows) == 3
    labels = [row[0] for row in anova.rows]
    assert "architecture" in labels and "dataset" in labels


def test_two_datasets_one_arch_analyzes_datasets():
    tables = analyze_records(_batch(["mlp"], ["synth", "blobs2"], 6))
    assert any("dataset" in t.title for t in tables)


def test_single_cell_is_refused_with_counts():
    with pytest.raises(ValidationError, match="1.*1|one"):
        analyze_records(_batch(["mlp"], ["synth"], 8))


def test_non_ok_and_null_records_are_filtered():
    records = _batch(["mlp", "bimodal"], ["synth"], 6)
    records.append(_record("mlp", "synth", 99, None, status="diverged",
                           test_loss=None, activation_energy=None))
    tables = analyze_records(records)  # must not crash on the null row
    assert tables
    with pytest.raises(ValidationError):
        analyze_records([_record(status="diverged", test_accuracy=None,
                                 test_loss=None, activation_energy=None)] * 4)


def test_no_records_are_named_as_none_found():
    with pytest.raises(ValidationError, match="no records were found"):
        analyze_records([])


def test_unusable_records_are_counted_by_cause():
    records = [_record(status="diverged", test_accuracy=None)] * 3 \
        + [_record(test_accuracy=None)] * 2
    with pytest.raises(ValidationError,
                       match=r"3 of 5 did not complete, the rest lack it"):
        analyze_records(records)


def test_response_selection():
    records = _batch(["mlp", "bimodal"], ["synth"], 6)
    for response in RESPONSES:
        if response.startswith("energy_mj"):
            continue  # no telemetry in these fixtures
        assert analyze_records(records, response=response)
    with pytest.raises(ValidationError):
        analyze_records(records, response="vibes")


def test_summary_table_has_dispersion_columns():
    tables = analyze_records(_batch(["mlp", "bimodal"], ["s1", "s2"], 4))
    summary = next(t for t in tables if "summary" in t.title)
    assert "cv_pct" in summary.headers
    assert "rank_variance" in summary.headers
    assert len(summary.rows) == 2


@pytest.mark.parametrize("sizes", [(12, 12, 12), (12, 12, 7, 12), (12, 7, 12, 30)])
def test_summary_intervals_equal_standalone_bootstraps(sizes):
    # successive architectures of equal size share one resample draw; each
    # interval still equals the one a lone bootstrap_ci(values, rng=0) gives
    gen = make_generator(5)
    archs = ["bimodal", "cnn", "mlp", "physics"][:len(sizes)]
    records = [_record(arch, "synth", seed, float(gen.uniform(0.5, 0.9)))
               for arch, n in zip(archs, sizes) for seed in range(n)]
    summary = next(t for t in analyze_records(records) if "summary" in t.title)
    assert [row[0] for row in summary.rows] == archs
    for arch, n, _, lower, upper, _, _ in summary.rows:
        ci = bootstrap_ci([r.test_accuracy for r in records if r.architecture == arch],
                          rng=0)
        assert n == sizes[archs.index(arch)]
        assert (lower.hex(), upper.hex()) == (ci.lower.hex(), ci.upper.hex())
    assert stats._draws is None


def test_table_rendering_and_csv():
    t = Table("demo", ["name", "value"], [["a", 1.25], ["b", None]])
    text = t.to_text()
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert "-" in lines[4]  # None renders as a dash
    csv = t.to_csv()
    assert csv.splitlines()[0] == "name,value"
    assert csv.splitlines()[2] == "b,"


def test_parameter_count_table_matches_direct_enumeration():
    table = parameter_count_table()
    by_label = {row[0]: row[1:] for row in table.rows}
    bimodal = by_label["bimodal (glia 1.0)"]
    assert bimodal[0] == param_count_for(
        ModelSpec("bimodal", 784, 1024, 10, glia_ratio=1.0))
    assert bimodal[1] == param_count_for(
        ModelSpec("bimodal", 5000, 1024, 20, glia_ratio=1.0))
    mlp = by_label["mlp"]
    assert mlp[2] == param_count_for(ModelSpec("mlp", 700, 1024, 10))
    cnn_row = next(k for k in by_label if k.startswith("cnn"))
    assert by_label[cnn_row][1] is None  # 5000 inputs are not an image
