"""Property tests: records and sweep reports survive JSON round trips.

Strategies are drawn per field annotation of ``ExperimentRecord``, so a
field added to the record is covered without editing this file.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from actreg.records import ExperimentRecord, record_from_dict
from actreg.sweep import SweepReport, SweepRow, load_sweep, save_sweep

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
RECORDS = st.builds(
    ExperimentRecord,
    **{f.name: BY_ANNOTATION[f.type] for f in fields(ExperimentRecord)
       if f.name != "extra"},
    extra=st.dictionaries(st.text(max_size=8).filter(lambda k: k not in STORED_KEYS),
                          JSON_VALUES, max_size=3))
ROWS = st.builds(SweepRow, lam=FLOATS, mean_accuracy=FLOATS, mean_energy=FLOATS,
                 relative_energy=FLOATS, seeds_ok=INTS)


@settings(max_examples=60, deadline=None)
@given(RECORDS)
def test_record_survives_json_round_trip(record):
    text = json.dumps(record.to_json_dict())
    assert record_from_dict(json.loads(text)) == record


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(RECORDS, max_size=4), rows=st.lists(ROWS, max_size=3),
       seeds=st.lists(INTS, max_size=3))
def test_sweep_report_survives_save_and_load(cells, rows, seeds):
    report = SweepReport(dataset="d", architecture="mlp", hidden_dim=8,
                         epochs=2, seeds=seeds, cells=cells, rows=rows)
    with tempfile.TemporaryDirectory() as d:
        back = load_sweep(save_sweep(report, Path(d) / "sweep.json"))
    assert back == report
    assert back.failed == report.failed
