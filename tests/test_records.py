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
    for invalid in (dict(status="weird"), dict(activations=[1, 2]),
                    dict(activations=[{"k": None}])):
        with pytest.raises(ValidationError):
            save_record(_record(**invalid), tmp_path)
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


@pytest.mark.parametrize("history", [{"loss": [float("nan"), 1.0]},
                                     [1.0, float("inf")],
                                     {"a": {"b": float("-inf")}}])
def test_save_refuses_a_non_finite_value_nested_in_extra(history, tmp_path):
    # json would write it as NaN or Infinity, which a strict parser refuses
    with pytest.raises(ValidationError, match="'history' is not standard JSON"):
        save_record(_record(extra={"history": history}), tmp_path)
    assert os.listdir(tmp_path) == []
    path = save_record(_record(extra={"history": {"loss": [0.5, 1.0]}}), tmp_path)
    assert load_record(path).extra == {"history": {"loss": [0.5, 1.0]}}


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
                                        ("status", "exploded"),
                                        ("history", {"loss": [float("nan"), 1.0]}),
                                        ("activations", ["relu", float("inf")]),
                                        # bytes are the file's own text:
                                        # json reads 1e999 as inf
                                        ("history", b'{"loss": [1e999]}'),
                                        ("activations", b"[1, 2]"),
                                        ("activations", b'[{"k": null}]')])
def test_load_refuses_what_save_refuses(key, value, tmp_path):
    save_record(_record(seed=1), tmp_path)
    # json writes NaN and Infinity, which save_record itself never does
    text = value.decode() if isinstance(value, bytes) else json.dumps(value)
    stored = json.dumps({**_record().to_json_dict(), key: None})
    (tmp_path / "bad.json").write_text(stored.replace(f'"{key}": null',
                                                      f'"{key}": {text}'))
    records, issues = load_records(tmp_path)
    assert [r.seed for r in records] == [1]
    assert len(issues) == 1 and "bad.json" in issues[0]
    assert repr(key) in issues[0]


def _mixed_directory(d):
    """Entries a records directory may hold besides records."""
    rec = {"architecture": "mlp", "dataset": "synth", "seed": 1, "test_accuracy": 0.5}
    (d / "a.json").write_text(json.dumps(rec, indent=2))
    (d / ".hidden.json").write_text(json.dumps({**rec, "seed": 2}))
    (d / "Z.json").write_text(json.dumps({**rec, "seed": 3}))
    (d / "B.JSON").write_text(json.dumps({**rec, "seed": 4}))
    (d / "notes.txt").write_text(json.dumps({**rec, "seed": 5}))
    (d / "d.json").mkdir()
    (d / "latin1.json").write_bytes(
        json.dumps({**rec, "dataset": "café"}, ensure_ascii=False).encode("latin-1"))
    (d / "bom.json").write_bytes(b"\xef\xbb\xbf" + json.dumps({**rec, "seed": 6}).encode())
    crlf = json.dumps({**rec, "seed": 7}, indent=2).replace("\n", "\r\n").encode()
    (d / "crlf.json").write_bytes(crlf)
    (d / "crlf_cut.json").write_bytes(crlf.replace(b"7", b"8")[:-3])


@pytest.mark.parametrize("relative", [False, True])
def test_load_records_reads_a_mixed_directory_by_the_glob_rules(relative, tmp_path,
                                                              monkeypatch):
    # names ending in .json, hidden ones too, case-sensitive, in path order;
    # a directory or an unreadable file is an issue naming its path, and a
    # CRLF file's parse error names the place a text-mode read would
    _mixed_directory(tmp_path)
    if relative:
        monkeypatch.chdir(tmp_path)
    where = "." if relative else str(tmp_path)
    prefix = "" if relative else f"{tmp_path}/"
    records, issues = load_records(where)
    assert [r.seed for r in records] == [2, 3, 1, 7]
    assert issues == [
        f"{prefix}bom.json: invalid JSON: Unexpected UTF-8 BOM (decode using "
        f"utf-8-sig): line 1 column 1 (char 0)",
        f"{prefix}crlf_cut.json: invalid JSON: Expecting ',' delimiter: "
        f"line 5 column 23 (char 84)",
        f"[Errno 21] Is a directory: '{prefix}d.json'",
        f"{prefix}latin1.json: not UTF-8 text: 'utf-8' codec can't decode byte "
        f"0xe9 in position 39: invalid continuation byte"]


def test_load_records_requires_directory(tmp_path):
    with pytest.raises(ValidationError):
        load_records(tmp_path / "missing")
