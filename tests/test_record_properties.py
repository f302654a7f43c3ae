"""Property tests: records and sweep reports survive JSON round trips.

Strategies are drawn per field annotation of ``ExperimentRecord``, so a
field added to the record is covered without editing this file.
"""

import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from actreg.records import ExperimentRecord, record_from_dict
from actreg.sweep import SweepReport, load_sweep, save_sweep

INTS = st.integers(-2**53, 2**53)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# a float field may hold an int, as a foreign log might write it
BY_ANNOTATION = {
    "str": st.text(max_size=8),
    "int": INTS,
    "float": FLOATS | INTS,
    "float | None": st.none() | FLOATS | INTS,
    "list[str]": st.lists(st.text(max_size=8), max_size=3),
}
STORED_KEYS = set(ExperimentRecord("a", "d", 0, None).to_json_dict())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
# status is the one str field with a closed set of values
RECORDS = st.builds(
    ExperimentRecord,
    **{f.name: BY_ANNOTATION[f.type] for f in fields(ExperimentRecord)
       if f.name not in ("extra", "status")},
    status=st.sampled_from(("ok", "diverged")),
    extra=st.dictionaries(st.text(max_size=8).filter(lambda k: k not in STORED_KEYS),
                          JSON_VALUES, max_size=3))
# sweep cells carry the metrics train() reports, so their means are finite
MEASURED = st.floats(min_value=0.0, max_value=1e6)
CELLS = st.builds(replace, RECORDS, lam=st.sampled_from((0.0, 1e-3, 1e-2)),
                  test_accuracy=MEASURED, activation_energy=MEASURED)
BASELINES = st.builds(replace, RECORDS, lam=st.just(0.0), status=st.just("ok"),
                      test_accuracy=MEASURED,
                      activation_energy=st.floats(min_value=1e-6, max_value=1e6))


@settings(max_examples=60, deadline=None)
@given(RECORDS)
def test_record_survives_json_round_trip(record):
    text = json.dumps(record.to_json_dict())
    assert record_from_dict(json.loads(text)) == record


@settings(max_examples=30, deadline=None)
@given(baseline=BASELINES, cells=st.lists(CELLS, max_size=4),
       position=st.integers(0, 4))
def test_sweep_report_survives_save_and_load(baseline, cells, position):
    cells.insert(position, baseline)
    report = SweepReport(cells)
    with tempfile.TemporaryDirectory() as d:
        back = load_sweep(save_sweep(report, Path(d) / "sweep.json"))
    assert back == report
    assert back.rows == report.rows
    assert back.failed == report.failed
