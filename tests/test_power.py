"""Power traces: trapezoid integration fixtures, replay parsing, live polling."""

import sys
import time

import pytest

from actreg.errors import ParseError, ValidationError
from actreg.power import (PHASES, EnergyReport, LiveSource, PowerSample,
                          energy_per_correct, integrate, live_source,
                          replay_source)


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
    assert samples[0] == PowerSample(0.0, 100.0, "training")
    assert samples[1].cpu_percent == 12.5
    assert samples[2].memory_percent == 55.5
    # samples are immutable values whose auxiliary readings default to None
    assert (samples[0].cpu_percent, samples[0].memory_percent) == (None, None)
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
