"""Command-line interface: subcommands, config precedence, exit codes."""

import os
import shlex
from pathlib import Path

import pytest

from actreg import cli
from actreg.cli import build_parser, main, parse_config
from actreg.datasets import synth_blobs
from actreg.errors import ParseError, ValidationError
from actreg.models import ModelSpec, build_model
from actreg.records import ExperimentRecord, load_records, save_record
from actreg.rng import make_generator
from actreg.sweep import load_sweep


def _run(*argv):
    return main(list(argv))


SMALL_RUN = ["run", "--classes", "3", "--feature-dim", "6", "--per-class",
             "30", "--hidden-dim", "8", "--max-epochs", "2", "--patience", "2"]


def test_run_writes_a_record(tmp_path, capsys):
    code = _run(*SMALL_RUN, "--records-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    records, issues = load_records(tmp_path)
    assert len(records) == 1 and not issues
    assert records[0].architecture == "mlp"
    assert records[0].epochs_run == 2
    assert "accuracy" in out and str(tmp_path) in out


def test_runs_differing_in_one_setting_keep_separate_files(tmp_path, capsys):
    for flag, values in (("--lambda", ("0", "1e-3")), ("--lr", ("1e-3", "1e-2")),
                         ("--val-fraction", ("0.1", "0.3"))):
        directory = tmp_path / flag.strip("-")
        for v in values:
            assert _run(*SMALL_RUN, flag, v, "--records-dir", str(directory)) == 0
        assert len(os.listdir(directory)) == 2, flag


def test_run_and_sweep_say_when_they_replace_a_record(tmp_path, capsys):
    # the record does not store --separation, so both runs name one file
    for sep in ("1.0", "3.0"):
        assert _run(*SMALL_RUN, "--separation", sep,
                    "--records-dir", str(tmp_path / "run")) == 0
        err = capsys.readouterr().err
        assert ("warning: replaced" in err) == (sep == "3.0")
    (name,) = os.listdir(tmp_path / "run")
    assert name.startswith("mlp_synth_h8_lam0_seed42_")
    assert f"warning: replaced {tmp_path / 'run' / name}" in err
    for repeat in (False, True):
        assert _run(*SMALL_SWEEP, "--records-dir-out", str(tmp_path / "cells")) == 0
        err = capsys.readouterr().err
        assert err.count("warning: replaced") == (2 if repeat else 0)


def test_run_unknown_architecture_is_config_error(tmp_path, capsys):
    code = _run("run", "--arch", "transformer",
                "--records-dir", str(tmp_path))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_divergence_exit_code(tmp_path, capsys):
    code = _run(*SMALL_RUN, "--arch", "physics", "--lambda", "1e308",
                "--records-dir", str(tmp_path))
    assert code == 2
    records, _ = load_records(tmp_path)
    assert records[0].status == "diverged"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "hidden_dim = 8\n"
                   "seed = 7\n"
                   "max_epochs = 2  # inline comment\n"
                   "patience = 2\n"
                   "classes = 3\n"
                   "feature_dim = 6\n"
                   "per_class = 30\n")
    code = _run("run", "--config", str(cfg), "--seed", "11",
                "--records-dir", str(tmp_path / "r"))
    assert code == 0
    records, _ = load_records(tmp_path / "r")
    assert records[0].seed == 11  # flag beats file
    assert records[0].hidden_dim == 8  # file beats default


def test_a_negative_seed_is_named_wherever_it_enters(tmp_path, capsys):
    with pytest.raises(ValidationError, match="seed must be a non-negative int, got -1"):
        build_model(ModelSpec("mlp", 4, 3, 2), -1)
    with pytest.raises(ValidationError, match="seed .* got -2"):
        synth_blobs(3, 4, 5, 1.0, -2)
    for bad in (2.5, True):
        with pytest.raises(ValidationError, match="seed"):
            make_generator(bad)
    assert _run(*SMALL_RUN, "--dataset-seed", "-1",
                "--records-dir", str(tmp_path)) == 1
    assert ("error: seed must be a non-negative int, got -1"
            in capsys.readouterr().err)


def test_an_empty_dataset_name_is_refused_not_renamed(tmp_path, capsys, monkeypatch):
    # IDX files stand in for themselves: the loader builds blobs under the given name
    monkeypatch.setattr(cli, "load_idx_dataset",
                        lambda directory, name: synth_blobs(3, 6, 30, 2.0, 0, name=name))
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("dataset_name =\n")
    for source in (["--dataset-name", ""], ["--config", str(cfg)],
                   ["--dataset", "idx", "--data-dir", "d", "--dataset-name", ""]):
        assert _run(*SMALL_RUN, *source, "--records-dir", str(tmp_path / "rd")) == 1
        assert "error: dataset name must be a non-empty string" in capsys.readouterr().err
    assert not (tmp_path / "rd").exists()
    for source, name in (([], "synth"), (["--dataset", "idx", "--data-dir", "d"], "idx")):
        assert _run(*SMALL_RUN, *source, "--records-dir", str(tmp_path / name)) == 0
        (record,), _ = load_records(tmp_path / name)
        assert record.dataset == name


def test_config_parse_errors():
    with pytest.raises(ParseError):
        parse_config("/nonexistent/path.cfg")


def test_config_rejects_unknown_and_bad_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    with pytest.raises(ValidationError, match="warp_factor"):
        parse_config(cfg)
    cfg.write_text("hidden_dim = many\n")
    with pytest.raises(ValidationError, match="hidden_dim"):
        parse_config(cfg)
    cfg.write_text("just a line without equals\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_config(cfg)


def test_config_telemetry_keys(tmp_path):
    cfg = tmp_path / "tele.cfg"
    cfg.write_text("telemetry.command = psutil_watts --json\n"
                   "telemetry.hz = 4.0\n")
    parsed = parse_config(cfg)
    assert parsed["telemetry.command"] == "psutil_watts --json"
    assert parsed["telemetry.hz"] == 4.0


def test_sweep_writes_report_and_cell_records(tmp_path, capsys):
    out_json = tmp_path / "sweep.json"
    code = _run("sweep", "--classes", "3", "--feature-dim", "6",
                "--per-class", "30", "--hidden-dim", "8", "--epochs", "1",
                "--lambdas", "0,1e-2", "--seeds", "42,123",
                "--out", str(out_json),
                "--records-dir-out", str(tmp_path / "cells"))
    assert code == 0
    text = capsys.readouterr().out
    assert "lambda" in text and "relative_energy" in text
    report = load_sweep(out_json)
    assert [r.lam for r in report.rows] == [0.0, 1e-2]
    # cell records land side by side, one file per cell
    records, issues = load_records(tmp_path / "cells")
    assert len(records) == 4 and not issues
    baseline = [r for r in records if r.lam == 0.0]
    assert len(baseline) == 2
    assert {r.seed for r in baseline} == {42, 123}


def test_a_sweep_whose_baseline_diverged_keeps_its_cells(tmp_path, capsys):
    # the report used to raise on construction, so every cell trained and
    # none was saved, and the exit code (1) said the settings were bad
    code = _run("sweep", "--hidden-dim", "8", "--per-class", "20",
                "--lr", "1e200", "--epochs", "2", "--seeds", "1,2",
                "--lambdas", "0,0.01", "--out", str(tmp_path / "sweep.json"),
                "--records-dir-out", str(tmp_path / "cells"))
    assert code == 2
    records, issues = load_records(tmp_path / "cells")
    assert len(records) == 4 and not issues
    assert {r.status for r in records} == {"diverged"}
    err = capsys.readouterr().err
    assert "lam=0 seed=1" in err and "lam=0.01 seed=2" in err
    assert "every lam = 0 baseline cell diverged" in err
    assert not (tmp_path / "sweep.json").exists()  # load_sweep would refuse it


RUN_ONLY = {"--lambda": "lambda", "--seed": "seed",
            "--val-fraction": "val_fraction", "--records-dir": "records_dir",
            "--telemetry-command": "telemetry.command",
            "--telemetry-hz": "telemetry.hz"}
SMALL_SWEEP = ["sweep", "--classes", "3", "--feature-dim", "6",
               "--per-class", "30", "--hidden-dim", "8", "--epochs", "1",
               "--lambdas", "0,1e-2", "--seeds", "42"]


@pytest.mark.parametrize("flag", RUN_ONLY)
def test_sweep_rejects_run_only_flags(flag, capsys):
    # --seed, --lambda and --records-dir are prefixes of sweep's own
    # flags; they must not be taken as abbreviations of them
    assert _run(*SMALL_SWEEP, flag, "1") == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("key", RUN_ONLY.values())
def test_sweep_rejects_run_only_config_keys(key, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"hidden_dim = 8\n{key} = 1\n")
    assert _run(*SMALL_SWEEP, "--config", str(cfg)) == 1
    assert repr(key) in capsys.readouterr().err


def test_glia_ratio_reaches_model_validation(tmp_path, capsys):
    assert _run(*SMALL_RUN, "--arch", "mlp", "--glia-ratio", "0.5",
                "--records-dir", str(tmp_path)) == 1
    assert "glia_ratio" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_rejects_grid_without_zero(capsys):
    code = _run("sweep", "--classes", "3", "--feature-dim", "6",
                "--per-class", "30", "--epochs", "1",
                "--lambdas", "1e-3,1e-2")
    assert code == 1


def test_gradcheck_passes_and_prints_each_case(capsys):
    code = _run("gradcheck")
    out = capsys.readouterr().out
    assert code == 0
    for arch in ("bimodal", "physics", "mlp", "cnn"):
        assert out.count(arch) == 3  # one line per lambda
    assert "worst relative error 2.159e-09 (threshold 0.0001)" in out


def test_gradcheck_failure_exit_code(capsys, monkeypatch):
    # an error above the threshold takes the failure path
    monkeypatch.setattr(cli, "gradcheck_zoo", lambda: [("mlp", 0.0, 2e-4)])
    code = _run("gradcheck")
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_analyze_over_generated_records(tmp_path, capsys):
    for arch in ("mlp", "bimodal"):
        for seed in ("1", "2", "3"):
            assert _run(*SMALL_RUN, "--arch", arch, "--seed", seed,
                        "--records-dir", str(tmp_path)) in (0,)
    capsys.readouterr()
    code = _run("analyze", "--records", str(tmp_path),
                "--out-dir", str(tmp_path / "tables"))
    out = capsys.readouterr().out
    assert code == 0
    assert "anova" in out
    written = os.listdir(tmp_path / "tables")
    assert "summary.txt" in written
    assert any(name.endswith(".csv") for name in written)


def test_analyze_says_which_records_it_dropped(tmp_path, capsys):
    base = dict(dataset="synth", hidden_dim=8, input_dim=6, output_dim=3, lr=1e-3,
                batch_size=32, lam=0.0, max_epochs=2, patience=2, epochs_run=2,
                status="ok", test_loss=0.4, activation_energy=10.0, param_count=100)
    for i, arch in enumerate(("mlp", "mlp", "mlp", "bimodal", "bimodal", "bimodal")):
        save_record(ExperimentRecord(architecture=arch, seed=i,
                                     test_accuracy=0.7 + 0.01 * i, **base), tmp_path)
    diverged = dict(base, status="diverged", epochs_run=1, test_loss=None,
                    activation_energy=None)
    for seed in (10, 11):
        save_record(ExperimentRecord(architecture="mlp", seed=seed,
                                     test_accuracy=None, **diverged), tmp_path)
    save_record(ExperimentRecord(architecture="bimodal", seed=12, test_accuracy=None,
                                 **base), tmp_path)
    assert _run("analyze", "--records", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "anova" in captured.out
    assert ("warning: analysis dropped 3 of 9 records: 2 did not complete, "
            "1 lack 'test_accuracy'") in captured.err


def test_analyze_insufficient_levels(tmp_path, capsys):
    assert _run(*SMALL_RUN, "--records-dir", str(tmp_path)) == 0
    capsys.readouterr()
    code = _run("analyze", "--records", str(tmp_path))
    assert code == 1
    assert "level" in capsys.readouterr().err.lower()


def test_report_params(capsys):
    assert _run("report", "params") == 0
    out = capsys.readouterr().out
    assert "bimodal" in out and "vision_784" in out and "hidden_dim=1024" in out


def test_report_sweep_round_trip(tmp_path, capsys):
    out_json = tmp_path / "s.json"
    _run("sweep", "--classes", "3", "--feature-dim", "6", "--per-class",
         "30", "--epochs", "1", "--lambdas", "0,1e-2", "--seeds", "42,123",
         "--out", str(out_json))
    capsys.readouterr()
    assert _run("report", "sweep", "--in", str(out_json)) == 0
    assert "relative_energy" in capsys.readouterr().out
    assert _run("report", "sweep") == 1  # missing --in


def test_missing_subcommand_is_usage_error(capsys):
    assert _run() == 1
    assert _run("frobnicate") == 1


def test_help_exits_zero(capsys):
    assert _run("--help") == 0
    assert "run" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-m", "actreg", "report", "params"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "architecture" in result.stdout


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    lines = [shlex.split(line, comments=True)[1:]
             for line in readme.replace("\\\n", " ").splitlines()
             if line.startswith("actreg ")]
    assert len(lines) >= 7
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: actreg {shlex.join(argv)}")
