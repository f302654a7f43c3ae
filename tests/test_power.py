"""Power traces: trapezoid integration fixtures, replay parsing, live polling."""

import math
import os
import re
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actreg import power
from actreg.errors import ParseError, ValidationError
from actreg.power import (PHASES, EnergyReport, LiveSource, PowerSample,
                          PowerTrace, energy_per_correct, integrate,
                          live_source, replay_source)


def _samples(points, phase="training"):
    return [PowerSample(t, w, phase) for t, w in points]


def test_constant_load_exact():
    # 100 W held for 10 s is exactly 1000 J
    report = integrate(_samples([(0.0, 100.0), (5.0, 100.0), (10.0, 100.0)]))
    assert report.joules == pytest.approx(1000.0, abs=1e-9)
    assert report.average_watts == pytest.approx(100.0, abs=1e-9)
    assert report.duration_s == 10.0
    assert report.sample_count == 3


def test_linear_ramp_exact():
    # 0 to 100 W over 10 s: area of the triangle is 500 J
    report = integrate(_samples([(0.0, 0.0), (10.0, 100.0)]))
    assert report.joules == pytest.approx(500.0, abs=1e-9)


def test_triangle_profile_exact():
    # up to 100 W at t=5 and back down: two triangles, 500 J total
    report = integrate(_samples([(0.0, 0.0), (5.0, 100.0), (10.0, 0.0)]))
    assert report.joules == pytest.approx(500.0, abs=1e-9)


def test_fewer_than_two_samples_is_zero():
    for samples in ([], _samples([(3.0, 50.0)])):
        report = integrate(samples)
        assert report == EnergyReport(0.0, 0.0, 0.0, len(samples))


def test_phase_filtering():
    mixed = (_samples([(0.0, 100.0), (10.0, 100.0)], "training")
             + _samples([(20.0, 50.0), (30.0, 50.0)], "testing"))
    assert integrate(mixed, phase="training").joules == pytest.approx(1000.0)
    assert integrate(mixed, phase="testing").joules == pytest.approx(500.0)
    # unfiltered integration spans the gap between phases too
    assert integrate(mixed).joules > 1500.0
    with pytest.raises(ValidationError):
        integrate(mixed, phase="warmup")


def test_integrate_validates_samples():
    with pytest.raises(ValidationError):
        integrate(_samples([(0.0, -5.0), (1.0, 5.0)]))
    with pytest.raises(ValidationError):
        integrate(_samples([(1.0, 5.0), (0.0, 5.0)]))  # time goes backward
    with pytest.raises(ValidationError):
        integrate([PowerSample(0.0, 1.0, "noodling"),
                   PowerSample(1.0, 1.0, "noodling")])


def test_energy_per_correct_fixture():
    # 1 J over 100 correct answers is 10 mJ each
    assert energy_per_correct(1.0, 100) == pytest.approx(10.0, abs=1e-12)
    assert energy_per_correct(5.0, 0) is None


def test_phase_names_are_fixed():
    assert PHASES == ("training", "validation", "testing")


# ----------------------------------------------------------------- replay

def test_replay_round_trip(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("0.0\t100.0\ttraining\n"
                    "1.0\t101.5\ttraining\t12.5\n"
                    "2.0\t99.0\ttesting\t10.0\t55.5\n")
    samples = replay_source(path)
    assert len(samples) == 3
    # trailing fields are checked, then dropped
    assert list(samples) == [PowerSample(0.0, 100.0, "training"),
                             PowerSample(1.0, 101.5, "training"),
                             PowerSample(2.0, 99.0, "testing")]
    # samples are immutable values
    with pytest.raises(AttributeError):
        samples[0].watts = 0.0


def test_replay_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0.0\t100.0\ttraining\n"
                    "1.0\tnot_a_number\ttraining\n")
    with pytest.raises(ParseError, match="line 2"):
        replay_source(path)

    path.write_text("0.0\t100.0\tlounging\n")
    with pytest.raises(ParseError, match="line 1"):
        replay_source(path)

    path.write_text("0.0\t100.0\n")
    with pytest.raises(ParseError, match="line 1"):
        replay_source(path)

    path.write_text("1.0\t100.0\ttraining\n0.5\t100.0\ttraining\n")
    with pytest.raises(ParseError, match="line 2"):
        replay_source(path)

    path.write_text("0.0\t100.0\ttraining\n1.0\tnan\ttraining\n")
    with pytest.raises(ParseError, match="non-finite.*line 2"):
        replay_source(path)

    path.write_text("inf\t100.0\ttraining\n")
    with pytest.raises(ParseError, match="non-finite.*line 1"):
        replay_source(path)

    path.write_text("0.0\t100.0\ttraining\n1.0\t100.0\ttraining\n"
                    "2.0\t-3.5\ttesting\n")
    with pytest.raises(ParseError, match="negative.*line 3"):
        replay_source(path)

    path.write_text("0.0\t100.0\ttraining\t12.5\tlots\n")
    with pytest.raises(ParseError, match="auxiliary.*line 1"):
        replay_source(path)


def test_replay_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("# meter: fixture\n\n0.0\t10.0\ttraining\n"
                    "1.0\t10.0\ttraining\n")
    assert len(replay_source(path)) == 2


def test_replay_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.tsv"
    for head in ("\ufeff# meter export\n", "\ufeff"):
        path.write_text(head + "0.0\t10.0\ttraining\n1.0\t10.0\ttesting\n", encoding="utf-8")
        assert list(replay_source(path)) == [PowerSample(0.0, 10.0, "training"),
                                             PowerSample(1.0, 10.0, "testing")]


def test_replay_returns_read_only_columns(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("0.0\t100.0\ttraining\n1.0\t101.5\tvalidation\t12.5\n"
                    "2.0\t99.0\ttesting\t10.0\t55.5\n")
    trace = replay_source(path)
    assert isinstance(trace, Sequence) and len(trace) == 3
    assert trace.timestamp_s.tolist() == [0.0, 1.0, 2.0]
    assert trace.watts.tolist() == [100.0, 101.5, 99.0]
    assert trace.phase.dtype == "int8" and trace.phase.tolist() == [0, 1, 2]
    assert trace[-1] == PowerSample(2.0, 99.0, "testing")
    with pytest.raises(IndexError):
        trace[3]
    with pytest.raises(ValueError, match="read-only"):
        trace.watts[0] = 0.0
    assert PowerTrace.of(trace) is trace
    assert list(PowerTrace.of(list(trace))) == list(trace)
    assert len(PowerTrace.of([])) == 0


def test_trailing_fields_are_checked_then_dropped(tmp_path):
    # readings no percentage can take: the trace keeps none of them
    rows = ["0.0\t40.0\ttraining", "1.0\t42.0\ttraining", "2.0\t30.0\tvalidation",
            "3.0\t35.0\ttesting"]
    trailing = ["\tnan\t-inf", "\t-50", "\t1e308\tnan", "\t-inf\t-50"]
    full, bare = tmp_path / "full.tsv", tmp_path / "bare.tsv"
    full.write_text("".join(r + t + "\n" for r, t in zip(rows, trailing)))
    bare.write_text("".join(r + "\n" for r in rows))
    trace = replay_source(full)
    assert PowerSample._fields == PowerTrace.__slots__ == ("timestamp_s", "watts", "phase")
    assert not hasattr(trace, "cpu_percent") and not hasattr(trace, "memory_percent")
    assert list(trace) == list(replay_source(bare))
    for phase in (None, *PHASES):
        assert integrate(trace, phase=phase) == integrate(replay_source(bare), phase=phase)


def test_a_sample_with_an_unknown_phase_is_refused_whatever_the_filter():
    # a trace's phase column indexes PHASES, so no trace can hold the tag
    for samples, phase in (([PowerSample(0.0, 1.0, "noodling")], None),
                           (_samples([(0.0, 1.0), (1.0, 1.0)])
                            + [PowerSample(2.0, 1.0, "noodling")], "training")):
        with pytest.raises(ValidationError, match="unknown phase 'noodling'"):
            integrate(samples, phase=phase)


def _line_parser(path) -> list[PowerSample]:
    """Reference: the replay parser that checked and built one sample per line."""
    samples: list[PowerSample] = []
    last_t = None
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # surrogateescape reads a byte that is not UTF-8 as U+DC80..U+DCFF
            escaped = [ord(c) - 0xDC00 for c in raw if "\udc80" <= c <= "\udcff"]
            if escaped:
                raise ParseError(f"byte {escaped[0]:#04x} is not UTF-8", line=lineno)
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if not 3 <= len(parts) <= 5:
                raise ParseError(f"expected 3 to 5 tab-separated fields, "
                                 f"got {len(parts)}", line=lineno)
            try:
                t = float(parts[0])
                w = float(parts[1])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ParseError("non-finite timestamp or wattage", line=lineno)
            if w < 0:
                raise ParseError(f"negative wattage {w}", line=lineno)
            phase = parts[2]
            if phase not in PHASES:
                raise ParseError(f"unknown phase {phase!r}, expected one of "
                                 f"{PHASES}", line=lineno)
            for field in parts[3:5]:
                try:
                    float(field)
                except ValueError:
                    raise ParseError(f"non-numeric auxiliary field {field!r}",
                                     line=lineno) from None
            if last_t is not None and t < last_t:
                raise ParseError(f"timestamp {t} out of order (previous {last_t})",
                                 line=lineno)
            last_t = t
            samples.append(PowerSample(t, w, phase))
    return samples


def _outcome(parse, path):
    """Samples as reprs, or the error and its line."""
    try:
        return [repr(s) for s in parse(path)]
    except ParseError as exc:
        return str(exc), exc.line


def _columns(trace):
    return {name: getattr(trace, name).tobytes() for name in PowerTrace.__slots__}


def _spellings(x: float):
    """Ways a meter export might write x, all read by float()."""
    sign = "+" if x >= 0 else ""
    return st.sampled_from([repr(x), f"{x:.6g}", f" {x!r} ", f"{x:e}", f"{sign}{x!r}"])


NOT_NUMBERS = st.sampled_from(["abc", "", "1.0.0", "0x10", "--1", "1e", "\x00", "1,5"])
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999", "-1e999"])
NOT_PHASES = st.sampled_from(["Training", "warmup", "", "testing ", " validation"])
COMMENTS = st.sampled_from(["#", "# meter: fixture", "   # indented", "\t# tab-indented",
                            "\u2003#em-space-indented", "#\t1.0\t2.0\ttraining"])
BLANKS = st.sampled_from(["", "   ", "\t", "\x0b", "\x0c", "\x1c", "\u2028"])
AUX = st.floats(allow_nan=True, allow_infinity=True).map(repr)
KINDS = ("data",) * 8 + ("comment", "blank")
# defects in the order they are applied to one line; "count" goes last
# because it drops or adds fields
DEFECTS = ("order", "time", "watts", "negative", "non-finite", "phase", "aux", "count")


@st.composite
def replay_logs(draw):
    """Replay text whose lines are data, comments and blanks, with CRLF and CR
    endings mixed in. About half the logs also hold malformed lines, each
    with one to three defects, so the order of the checks shows too."""
    kinds = KINDS + (("malformed",) * 2 if draw(st.booleans()) else ())
    t = draw(st.floats(-1e3, 1e3))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(COMMENTS))
            continue
        if kind == "blank":
            lines.append(draw(BLANKS))
            continue
        t += draw(st.sampled_from([0.0, 1e-3, 0.1, 7.0]))
        parts = [draw(_spellings(t)), draw(_spellings(draw(st.floats(0.0, 1e6)))),
                 draw(st.sampled_from(PHASES)), *draw(st.lists(AUX, max_size=2))]
        defects = (draw(st.sets(st.sampled_from(DEFECTS), min_size=1, max_size=3))
                   if kind == "malformed" else ())
        for defect in sorted(defects, key=DEFECTS.index):
            if defect == "order":
                parts[0] = repr(t - draw(st.floats(1e-6, 10.0)))
            elif defect == "time":
                parts[0] = draw(NOT_NUMBERS)
            elif defect == "watts":
                parts[1] = draw(NOT_NUMBERS)
            elif defect == "negative":
                parts[1] = repr(-draw(st.floats(1e-300, 1e6)))
            elif defect == "non-finite":
                parts[draw(st.integers(0, 1))] = draw(NOT_FINITE)
            elif defect == "phase":
                parts[2] = draw(NOT_PHASES)
            elif defect == "aux":
                parts[3:] = [draw(AUX), draw(NOT_NUMBERS)][-draw(st.integers(1, 2)):]
            else:
                parts = draw(st.sampled_from([parts[:1], parts[:2],
                                              parts[:3] + ["1.0", "2.0", "3.0"]]))
        lines.append("\t".join(parts))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(text=replay_logs(), block_chars=st.integers(1, 300))
def test_replay_matches_the_line_parser(text, block_chars):
    # small blocks put every kind of line, bad ones included, at block edges
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_line_parser, path)
        with mock.patch.object(power, "_BLOCK_CHARS", block_chars):
            assert _outcome(replay_source, path) == expected
            if isinstance(expected, tuple):
                return
            trace = replay_source(path)
            # the same log with every line cut to its first three fields
            pieces = re.split(r"(\r\n|\r|\n)", text)
            pieces[::2] = ["\t".join(line.split("\t")[:3]) for line in pieces[::2]]
            path.write_bytes("".join(pieces).encode("utf-8"))
            assert _columns(replay_source(path)) == _columns(trace)
    samples = list(trace)
    for phase in (None, *PHASES):
        assert integrate(trace, phase=phase) == integrate(samples, phase=phase)
    assert PowerTrace.of(trace) is trace
    assert [repr(s) for s in PowerTrace.of(samples)] == expected


def test_a_bad_line_on_either_side_of_a_block_edge(tmp_path):
    path = tmp_path / "long.tsv"
    good = [f"{0.1 * k!r}\t{100.0 + k % 7!r}\ttraining\n" for k in range(60_000)]
    path.write_text("".join(good))
    with open(path, encoding="utf-8") as fh:
        first_block = len(fh.readlines(power._BLOCK_CHARS))
    assert 1 < first_block < len(good)
    assert _outcome(replay_source, path) == _outcome(_line_parser, path)
    for k in (first_block - 1, first_block):
        # out of order against the line before it, which is valid
        path.write_text("".join(good[:k] + ["0.0\t100.0\ttraining\n"] + good[k + 1:]))
        with pytest.raises(ParseError, match="out of order") as caught:
            replay_source(path)
        assert caught.value.line == k + 1
        assert _outcome(replay_source, path) == _outcome(_line_parser, path)


def _routes(path, block_chars=power._BLOCK_CHARS):
    """replay_source's outcome, and whether np.loadtxt and the line parser ran."""
    with (mock.patch.object(power, "_BLOCK_CHARS", block_chars),
          mock.patch.object(power.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
          mock.patch.object(power, "_read_lines", wraps=power._read_lines) as lines):
        return _outcome(replay_source, path), loadtxt.called, lines.called


PLAIN_COMMENTS = st.sampled_from(["#", "# meter: fixture", "#\t1.0\t2.0\ttraining",
                                  "# timestamp_s\twatts\tphase"])


PLAIN_SPELLINGS = st.sampled_from([repr, "{:.6g}".format, "{:e}".format,
                                   lambda x: repr(x) if str(x)[0] == "-" else f"+{x!r}"])
# a trailing field is only read as a number, so NaN passes there
PLAIN_AUX = st.one_of(st.floats(-1e3, 1e3), st.just(math.nan))


@st.composite
def plain_logs(draw):
    """Replay text that numpy's reader may take: leading # comments, then data
    lines of the same number of fields, three to five, with numbers spelt as
    meters spell them, \\n endings, an optional byte-order mark and an
    optional final line end."""
    t = draw(st.floats(-1e3, 1e3))
    lines = draw(st.lists(PLAIN_COMMENTS, max_size=3))
    aux = draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from([0.0, 1e-3, 0.1, 7.0]))
        w = draw(st.floats(0.0, 1e6))
        spell = draw(PLAIN_SPELLINGS)
        parts = [spell(t), spell(w), draw(st.sampled_from(PHASES))]
        parts += [draw(PLAIN_SPELLINGS)(draw(PLAIN_AUX)) for _ in range(aux)]
        lines.append("\t".join(parts))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=300, deadline=None)
@given(text=plain_logs(),
       block_chars=st.one_of(st.integers(1, 300), st.just(power._BLOCK_CHARS)))
def test_plain_logs_take_numpys_reader_with_the_line_parsers_result(text, block_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_line_parser, path)
        outcome, loadtxt_ran, lines_ran = _routes(path, block_chars)
        assert outcome == expected and loadtxt_ran
        if isinstance(expected, tuple):
            # a number spelt to 6 digits can round past the next timestamp
            assert "out of order" in expected[0] and lines_ran
            return
        assert not lines_ran
        with mock.patch.object(power, "_BLOCK_CHARS", block_chars):
            trace = replay_source(path)
        reference = PowerTrace.of(_line_parser(path))
    assert _columns(trace) == _columns(reference)


PLAIN = ("# meter export\n0.0\t100.0\ttraining\n1.0\t101.5\ttraining\n"
         "2.0\t80.25\tvalidation\n3.0\t90.0\ttesting\n")
# a meter's cpu and memory percent, the trailing fields of demos/05_power_replay.py,
# after every sample
METER = ("# seconds\twatts\tphase\tcpu%\tmem%\n0.0\t100.0\ttraining\t55.0\t12.0\n"
         "1.0\t101.5\ttraining\t71.0\t12.1\n2.0\t80.25\tvalidation\t3.5\t12.1\n"
         "3.0\t90.0\ttesting\t42.0\t12.5\n")


@pytest.mark.parametrize("old, new", [
    ("training\n1.0", "training\n# pause\n1.0"),  # a comment between samples
    ("training\n1.0", "training\n\n1.0"),  # a blank line
    ("training\n1.0", "training\r\n1.0"),  # one CRLF ending
    ("101.5\ttraining", "101.5\ttraining\t12.5\t1.0\t2.0"),  # more fields
    ("101.5\ttraining", "101.5\ttraining\t12.5"),  # one field more than the rest
    ("101.5", "1_0"),
    ("1.0\t", "\u0661\t"),  # ARABIC-INDIC DIGIT ONE
    ("101.5", "nan"),
    ("101.5", "-101.5"),
    ("2.0\t", "0.5\t"),  # out of order
    ("101.5", ""),
    ("101.5", "inf"),
    ("1.0\t", "1e999\t"),
    ("training\n1.0", "training\n 1.0"),
    ("\tvalidation", "\tvalidatio"),
    ("\tvalidation", "\tvalidatioN"),
    ("\ttesting", "\ttestinG"),
    ("\ttraining\n1.0", "\ttraining\x00\n1.0"),  # numpy's bytes column drops the NUL
    ("101.5", "101.5\x1f"),  # numpy reads the control byte as space
    ("\tvalidation", "\tvalidations"),  # one byte longer than the longest name
    # a blank line and a wide line keep the block's tab count
    ("training\n1.0\t101.5\ttraining", "training\n\n1.0\t101.5\ttraining\t1.0\t2.0"),
])
def test_a_near_miss_gives_the_line_parsers_outcome(tmp_path, old, new):
    assert PLAIN.count(old) == 1
    path = tmp_path / "log.tsv"
    path.write_bytes(PLAIN.replace(old, new).encode("utf-8"))
    expected = _outcome(_line_parser, path)
    for block_chars in (1, 7, 40, power._BLOCK_CHARS):
        outcome, _, lines_ran = _routes(path, block_chars)
        assert outcome == expected
        # every ParseError comes from the line parser
        assert lines_ran or not isinstance(outcome, tuple)


@pytest.mark.parametrize("log", [
    PLAIN, METER,
    METER.replace("\t12.0\n", "\n").replace("\t12.1\n", "\n").replace("\t12.5\n", "\n"),
    METER.replace("\t71.0", "\tnan"),  # read as a number, then ignored
], ids=["plain", "meter", "four-fields", "nan-cpu"])
def test_the_plain_log_itself_takes_numpys_reader(tmp_path, log):
    path = tmp_path / "log.tsv"
    path.write_text(log)
    assert _routes(path) == (_outcome(_line_parser, path), True, False)
    assert len(_outcome(_line_parser, path)) == 4


@pytest.mark.parametrize("old, new", [
    ("\t55.0\t12.0", ""),  # a sample without the meter's fields
    ("\t55.0\t12.0", "\t55.0"),
    ("\t55.0\t12.0", "\t55.0\t12.0\t1.0"),  # six fields
    ("\t71.0", "\t"),  # an empty trailing field
    ("\t71.0", "\t1e"),
    ("\t71.0", "\t+"),
    ("\t71.0", "\t."),
    ("\t71.0", "\t7_1"),
    ("\t71.0", "\tinf"),
    ("\t71.0", "\tnana"),
    ("\t71.0", "\ttesting"),
    ("\t12.5\n", "\t12.5\r\n"),
])
def test_a_near_miss_in_a_meters_fields_gives_the_line_parsers_outcome(tmp_path, old,
                                                                         new):
    assert METER.count(old) == 1
    path = tmp_path / "log.tsv"
    path.write_bytes(METER.replace(old, new).encode("utf-8"))
    expected = _outcome(_line_parser, path)
    for block_chars in (1, 7, 40, power._BLOCK_CHARS):
        outcome, _, lines_ran = _routes(path, block_chars)
        assert outcome == expected and lines_ran


def test_an_empty_or_comment_only_log_is_an_empty_trace_without_warnings(tmp_path):
    path = tmp_path / "log.tsv"
    for text in ("", "\ufeff", "# meter export\n", "# a\n# b", "\n"):
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = replay_source(path)
        assert len(trace) == 0
        assert _columns(trace) == _columns(PowerTrace.of(()))


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "log.tsv"
    good = b"0.0\t100.0\ttraining\n1.0\t100.0\ttraining\n"
    cases = [
        (b"# meter \xb5W export\n" + good, "byte 0xb5 is not UTF-8", 1),
        (good + b"2.0\t9\xff\ttesting\n", "byte 0xff is not UTF-8", 3),
        (good + b"2.0\t9\ttesting\n# \xed\xa0\x80\n", "byte 0xed is not UTF-8", 4),
        # an earlier line that fails another check is named first
        (good + b"0.5\t1.0\ttesting\n# \xb5\n", "out of order", 3),
        (b"0.0\t-1\ttraining\n\xb5\n", "negative wattage", 1),
        # the bad byte's line fails first, whatever else is wrong with it
        (good + b"2.0\t-1\xb5\tlounging\n", "byte 0xb5 is not UTF-8", 3),
    ]
    for data, message, line in cases:
        path.write_bytes(data)
        for block_chars in (1, 20, power._BLOCK_CHARS):
            with mock.patch.object(power, "_BLOCK_CHARS", block_chars):
                with pytest.raises(ParseError, match=message) as caught:
                    replay_source(path)
            assert caught.value.line == line
            assert _outcome(replay_source, path) == _outcome(_line_parser, path)


@settings(max_examples=200, deadline=None)
@given(text=replay_logs(), byte=st.integers(0x80, 0xFF), at=st.floats(0.0, 1.0),
       block_chars=st.integers(1, 300))
def test_a_byte_that_is_not_utf8_anywhere_matches_the_line_parser(text, byte, at,
                                                                   block_chars):
    data = text.encode("utf-8")
    k = int(at * len(data))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.tsv"
        path.write_bytes(data[:k] + bytes([byte]) + data[k:])
        expected = _outcome(_line_parser, path)
        with mock.patch.object(power, "_BLOCK_CHARS", block_chars):
            assert _outcome(replay_source, path) == expected


def test_a_log_that_grows_during_a_replay_gives_the_line_parsers_outcome(tmp_path):
    # larger than the text layer's 8 KB read buffer, which would otherwise
    # hold the whole log before the append
    path = tmp_path / "log.tsv"
    path.write_text("".join(f"{k}.0\t1.0\ttraining\n" for k in range(20_000)))
    before = _outcome(_line_parser, path)
    loadtxt = np.loadtxt

    def append_then_read(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("20000.0\t1.0\ttraining\x00\n")
        return loadtxt(*args, **kwargs)
    with mock.patch.object(power.np, "loadtxt", side_effect=append_then_read) as read:
        outcome = _outcome(replay_source, path)
    assert read.called
    assert outcome in (before, _outcome(_line_parser, path))


@pytest.mark.skipif(sys.platform == "win32", reason="posix named pipe")
def test_a_log_read_from_a_pipe_takes_the_line_parser(tmp_path):
    pipe = tmp_path / "log.fifo"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(PLAIN,))
    writer.start()
    try:
        outcome, loadtxt_ran, _ = _routes(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive() and not loadtxt_ran
    (tmp_path / "log.tsv").write_text(PLAIN)
    assert outcome == _outcome(_line_parser, tmp_path / "log.tsv")


def test_replay_memory_stays_below_a_copy_of_the_log(tmp_path):
    # the workload's shape: a header comment, then 10 Hz samples written with repr
    n = 100_000
    gen = np.random.default_rng(3)
    watts = np.abs(120.0 + gen.normal(0.0, 5.0, n)).tolist()
    phases = [PHASES[(k % 100) // 80] for k in range(n)]
    path = tmp_path / "power.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# timestamp_s\twatts\tphase\n")
        fh.writelines(f"{0.1 * k!r}\t{w!r}\t{p}\n" for k, (w, p) in enumerate(zip(watts, phases)))
    replay_source(path)
    tracemalloc.start()
    try:
        trace = replay_source(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    # the columns, a copy of them and a block or two, but not the log: the
    # line parser peaks at 10.7 MB on this log, and holding its 3.9 MB
    # would break the bound
    columns = sum(getattr(trace, name).nbytes for name in PowerTrace.__slots__)
    assert peak < 2 * columns + 2 * power._BLOCK_CHARS < path.stat().st_size + columns


# ------------------------------------------------------------------- live

@pytest.mark.skipif(sys.platform == "win32", reason="posix shell stub")
def test_live_source_polls_a_command():
    source = LiveSource(f"{sys.executable} -c \"print(100.0)\"", hz=20.0)
    assert source.available
    source.set_phase("training")
    source.start()
    time.sleep(0.4)
    source.set_phase("testing")
    time.sleep(0.3)
    samples = source.stop()
    assert len(samples) >= 3
    assert {s.phase for s in samples} <= {"training", "testing"}
    assert all(s.watts == pytest.approx(100.0) for s in samples)
    times = [s.timestamp_s for s in samples]
    assert times == sorted(times)


def test_live_source_degrades_when_command_is_missing():
    source = LiveSource("definitely_not_a_real_meter_binary --watts", hz=5.0)
    source.start()
    time.sleep(0.3)
    samples = source.stop()
    assert samples == []
    assert not source.available


def test_live_source_factory_handles_none():
    assert live_source(None) is None
    src = live_source(f"{sys.executable} -c \"print(1.0)\"", hz=1.0)
    assert isinstance(src, LiveSource)


def test_live_source_rejects_bad_rate():
    for hz in (0.0, 1001.0, float("inf"), "5", True, None):
        with pytest.raises(ValidationError, match="poll rate"):
            LiveSource("cmd", hz=hz)
