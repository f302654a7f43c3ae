"""Experiment records: one JSON file per training run.

A record captures everything needed to interpret a run: architecture
configuration, hyperparameters, final test metrics, activation energy,
measured energy (null when telemetry was unavailable), duration,
hardware descriptor, and the seed. Unknown keys found in a file are
preserved through a load/save round trip so logs from other tools can
flow through the analysis pipeline unchanged.

Filenames follow {arch}_{dataset}_h{hidden}[_g{glia}]_lam{lam}_seed{seed}_{hash}.json,
where the hash covers every stored hyperparameter, so runs that differ in
any of them keep separate files. Writes are atomic (temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ParseError, ValidationError


@dataclass
class ExperimentRecord:
    """One training run. This class is the record's only declaration.

    Fields without a default are required in a loaded file: the analysis
    pipeline needs only those, so externally produced logs that lack
    the others still load.
    """

    architecture: str
    dataset: str
    seed: int
    test_accuracy: float | None
    hidden_dim: int = 0
    input_dim: int = 0
    output_dim: int = 0
    glia_ratio: float | None = None
    activations: list[str] = field(default_factory=list)
    lr: float = 0.0
    batch_size: int = 0
    weight_decay: float = 0.0
    lam: float = 0.0
    max_epochs: int = 0
    patience: int = 0
    val_fraction: float = 0.0
    epochs_run: int = 0
    status: str = "ok"
    test_loss: float | None = None
    activation_energy: float | None = None
    energy_mj_total: float | None = None
    energy_mj_per_correct: float | None = None
    training_duration_seconds: float = 0.0
    hardware: str = ""
    param_count: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        out = dict(self.extra)
        for key, (attr, _) in _SCHEMA.items():
            out[key] = getattr(self, attr)
        return out


# The JSON types each field annotation accepts; an integer is a valid
# float. An annotation missing here is a KeyError at import.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (float, int),
    "float | None": (float, int, type(None)),
    "list[str]": (list,),
}

# Stored key -> (attribute, accepted JSON types) of every field but
# extra. The regularization weight is stored as "lambda", a Python
# keyword, so its attribute is "lam".
_STORED = [("lambda" if f.name == "lam" else f.name, f)
           for f in fields(ExperimentRecord) if f.name != "extra"]
_SCHEMA: dict[str, tuple[str, tuple[type, ...]]] = {
    key: (f.name, _JSON_TYPES[f.type]) for key, f in _STORED}
_REQUIRED = tuple(key for key, f in _STORED
                  if f.default is MISSING and f.default_factory is MISSING)


def _split(stored: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split stored fields into (attributes, extra), raising ParseError on a
    wrong type, a list holding a non-string, a non-finite float, a value
    standard JSON cannot hold anywhere in ``extra``, or an unknown status."""
    known: dict[str, Any] = {}
    extra: dict[str, Any] = {}
    for key, value in stored.items():
        entry = _SCHEMA.get(key)
        if entry is None:
            extra[key] = value
        elif not isinstance(value, entry[1]) or isinstance(value, bool):
            raise ParseError(f"field {key!r} has wrong type "
                             f"{type(value).__name__}")
        elif type(value) is list and not all(type(v) is str for v in value):
            raise ParseError(f"field {key!r} must hold only strings")
        else:
            known[entry[0]] = value
        # json would write NaN or Infinity, which are not standard JSON
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"field {key!r} is non-finite")
    # as deep as extra goes, where a parsed 1e999 is an infinity too
    for key, value in extra.items():
        try:
            json.dumps(value, allow_nan=False)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"field {key!r} is not standard JSON: {exc}") from None
    if known.get("status", "ok") not in ("ok", "diverged"):
        raise ParseError(f"field 'status' has unknown value {known['status']!r}")
    return known, extra


def plain_number(name: str, value, least: float, *,
                 strict: bool = False) -> int | float:
    """``value`` as a finite Python int or float >= ``least``, or > it
    when ``strict``.

    A numpy integer or float becomes its Python equal. A bool, a string,
    a NaN, an infinity or a smaller value raises ValidationError naming
    the setting.
    """
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        number = value.item() if isinstance(value, np.generic) else value
        if number < math.inf and (number > least
                                  or number == least and not strict):
            return number
    raise ValidationError(f"{name} must be {'>' if strict else '>='} {least}, "
                          f"got {value!r}")


def plain_int(name: str, value, least: int) -> int:
    """``value`` as a Python int >= ``least``.

    A numpy integer becomes its Python equal. A bool, a float, a string
    or a smaller value raises ValidationError naming the setting.
    """
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        kind = {0: "a non-negative int", 1: "a positive int"}.get(
            least, f"an int >= {least}")
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def record_from_dict(raw: dict[str, Any]) -> ExperimentRecord:
    """Build a record from parsed JSON, preserving unknown keys.

    Raises ParseError when a required field is missing or the record
    fails the checks ``save_record`` applies.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"record must be a JSON object, got {type(raw).__name__}")
    for key in _REQUIRED:
        if key not in raw:
            raise ParseError(f"missing required field {key!r}")
    known, extra = _split(raw)
    return ExperimentRecord(**known, extra=extra)


def validate_record(record: ExperimentRecord) -> None:
    """Raise ValidationError on what loading refuses: see ``_split``."""
    try:
        _split(record.to_json_dict())
    except ParseError as exc:
        raise ValidationError(f"record {exc}") from None


def record_filename(record: ExperimentRecord) -> str:
    glia = ""
    if record.glia_ratio is not None:
        g = record.glia_ratio
        glia = f"_g{g:.1f}" if g == int(g) else f"_g{g:g}"
    # param_count stands in for the cnn widths, which records do not store
    hyper = [float(getattr(record, k)) for k in (
        "input_dim", "output_dim", "lr", "batch_size", "weight_decay", "lam",
        "max_epochs", "patience", "val_fraction", "param_count")]
    digest = hashlib.sha256(repr(hyper).encode()).hexdigest()[:8]
    return (f"{record.architecture}_{record.dataset}_h{record.hidden_dim}"
            f"{glia}_lam{record.lam:g}_seed{record.seed}_{digest}.json")


def save_record(record: ExperimentRecord, directory) -> Path:
    """Validate and atomically write a record; returns the final path."""
    validate_record(record)
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    final = d / record_filename(record)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record.to_json_dict(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return final


def load_record(path) -> ExperimentRecord:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if "\r" in text:
        # as a text-mode read does, so a parse error names the same place
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return record_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_records(directory) -> tuple[list[ExperimentRecord], list[str]]:
    """Load every .json record under a directory.

    Every entry whose name ends in ``.json`` is read, in name order,
    hidden names included. Malformed files are skipped; the second
    element lists one message per skipped file so callers can surface
    them.
    """
    d = Path(directory)
    if not d.is_dir():
        raise ValidationError(f"{directory} is not a directory")
    with os.scandir(d) as entries:
        names = sorted(e.name for e in entries if e.name.endswith(".json"))
    # str(d / name) for every name, the path an issue names, with one Path
    # built rather than one a file: a name is one component, never . or ..
    prefix = str(d / "_")[:-1]
    records: list[ExperimentRecord] = []
    issues: list[str] = []
    for name in names:
        try:
            records.append(load_record(prefix + name))
        except (ParseError, OSError) as exc:
            issues.append(str(exc))
    return records, issues
