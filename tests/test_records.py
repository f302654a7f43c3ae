"""Experiment records: JSON round-trips, filenames, atomic persistence."""

import json
import os
import re

import pytest

from actreg.errors import ParseError, ValidationError
from actreg.records import (ExperimentRecord, load_record, load_records,
                            record_filename, record_from_dict, save_record,
                            validate_record)


def _record(**overrides):
    base = dict(
        architecture="bimodal", dataset="synth", hidden_dim=64, input_dim=32,
        output_dim=4, glia_ratio=1.0, activations=["relu", "tanh"], lr=1e-3,
        batch_size=32, weight_decay=1e-5, lam=0.01, max_epochs=50, patience=10,
        epochs_run=23, seed=42, status="ok", test_accuracy=0.925,
        test_loss=0.31, activation_energy=512.5, energy_mj_total=1234.0,
        energy_mj_per_correct=3.4, training_duration_seconds=12.25,
        hardware="x86_64;Linux;3.10;2.2", param_count=12345)
    base.update(overrides)
    return ExperimentRecord(**base)


def test_round_trip_is_lossless():
    rec = _record()
    back = record_from_dict(rec.to_json_dict())
    assert back == rec


def test_lambda_key_serialization():
    d = _record(lam=0.125).to_json_dict()
    assert d["lambda"] == 0.125
    assert "lam" not in d
    assert record_from_dict(d).lam == 0.125


def test_unknown_keys_survive_round_trip():
    d = _record().to_json_dict()
    d["collector_version"] = "0.9"
    d["室温_c"] = 21.5
    rec = record_from_dict(d)
    assert rec.extra == {"collector_version": "0.9", "室温_c": 21.5}
    again = rec.to_json_dict()
    assert again["collector_version"] == "0.9"
    assert record_from_dict(again) == rec


def test_required_fields_enforced():
    d = _record().to_json_dict()
    del d["test_accuracy"]
    with pytest.raises(ParseError, match="test_accuracy"):
        record_from_dict(d)
    with pytest.raises(ParseError):
        record_from_dict({"architecture": "mlp"})


def test_type_errors_are_reported():
    d = _record().to_json_dict()
    d["seed"] = "forty-two"
    with pytest.raises(ParseError, match="seed"):
        record_from_dict(d)
    d = _record().to_json_dict()
    d["seed"] = True  # bool is not an acceptable integer
    with pytest.raises(ParseError, match="seed"):
        record_from_dict(d)


def test_validate_rejects_bad_status_and_nonfinite():
    with pytest.raises(ValidationError, match="status"):
        validate_record(_record(status="exploded"))
    with pytest.raises(ValidationError):
        validate_record(_record(test_accuracy=float("nan")))
    # a diverged run carries null metrics and must be acceptable
    validate_record(_record(status="diverged", test_accuracy=None,
                            test_loss=None, activation_energy=None,
                            energy_mj_total=None, energy_mj_per_correct=None))


def test_filename_pattern():
    name = record_filename(_record())
    assert re.fullmatch(r"bimodal_synth_h64_g1\.0_lam0\.01_seed42_[0-9a-f]{8}\.json",
                        name)
    plain = _record(architecture="mlp", glia_ratio=None)
    assert record_filename(plain) == name.replace("bimodal", "mlp", 1).replace("_g1.0", "")
    frac = _record(glia_ratio=0.25)
    assert record_filename(frac) == name.replace("_g1.0", "_g0.25")
    assert record_filename(_record(lam=0.0)).startswith("bimodal_synth_h64_g1.0_lam0_")
    # param_count tells cnn widths apart; an int setting equals its float
    assert record_filename(_record(param_count=1)) != name
    assert record_filename(_record(lr=1)) == record_filename(_record(lr=1.0))


def test_save_and_load(tmp_path):
    rec = _record()
    path = save_record(rec, tmp_path / "records")
    assert path.name == record_filename(rec)
    assert load_record(path) == rec
    # file is valid, human-readable json
    raw = json.loads(path.read_text())
    assert raw["lambda"] == rec.lam


def test_save_leaves_no_temp_files_behind(tmp_path):
    save_record(_record(), tmp_path)
    save_record(_record(seed=43), tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == sorted([record_filename(_record()),
                            record_filename(_record(seed=43))])


def test_save_refuses_invalid_record(tmp_path):
    with pytest.raises(ValidationError):
        save_record(_record(status="weird"), tmp_path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("attr, key, value", [("lam", "lambda", float("inf")),
                                             ("lr", "lr", float("nan")),
                                             ("weight_decay", "weight_decay",
                                              float("inf")),
                                             ("extra", "power_w",
                                              {"power_w": float("nan")})])
def test_save_refuses_non_finite_hyperparameters(attr, key, value, tmp_path):
    # json would write them as Infinity or NaN, which is not standard JSON
    with pytest.raises(ValidationError, match=f"'{key}' is non-finite"):
        save_record(_record(**{attr: value}), tmp_path)
    assert os.listdir(tmp_path) == []


def test_load_records_skips_malformed(tmp_path):
    save_record(_record(seed=1), tmp_path)
    save_record(_record(seed=2), tmp_path)
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "incomplete.json").write_text('{"architecture": "mlp"}')
    records, issues = load_records(tmp_path)
    assert len(records) == 2
    assert len(issues) == 2
    assert any("broken.json" in msg for msg in issues)
    assert any("incomplete.json" in msg for msg in issues)


def test_a_file_that_is_not_utf8_is_skipped_and_named(tmp_path):
    save_record(_record(seed=1), tmp_path)
    text = json.dumps({**_record().to_json_dict(), "architecture": "mlp@"})
    (tmp_path / "x.json").write_bytes(text.encode().replace(b"@", b"\xff"))
    records, issues = load_records(tmp_path)
    assert [r.seed for r in records] == [1]
    assert len(issues) == 1 and "x.json" in issues[0] and "UTF-8" in issues[0]
    with pytest.raises(ParseError, match="x.json"):
        load_record(tmp_path / "x.json")


@pytest.mark.parametrize("key, value", [("test_accuracy", float("nan")),
                                        ("lambda", float("inf")),
                                        ("power_w", float("-inf")),
                                        ("status", "exploded")])
def test_load_refuses_what_save_refuses(key, value, tmp_path):
    save_record(_record(seed=1), tmp_path)
    # json writes NaN and Infinity, which save_record itself never does
    (tmp_path / "bad.json").write_text(json.dumps({**_record().to_json_dict(),
                                                   key: value}))
    records, issues = load_records(tmp_path)
    assert [r.seed for r in records] == [1]
    assert len(issues) == 1 and "bad.json" in issues[0]
    assert repr(key) in issues[0]


def test_load_records_requires_directory(tmp_path):
    with pytest.raises(ValidationError):
        load_records(tmp_path / "missing")
