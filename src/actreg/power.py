"""Power telemetry: capture, replay, and trapezoidal energy integration.

Samples are wattage readings tagged with the run phase that produced
them. A replayed log is held as columns (``PowerTrace``), and
``integrate`` works on columns whatever it is given. Energy is the
trapezoidal integral of power over time; fewer than two samples
integrate to a zero report rather than an error, because a too-short
capture is an expected condition, not a bug.

Live capture shells out to a user-supplied command that prints one
wattage per invocation. If the command is missing or misbehaves the
stream ends with ``available`` set to False and the training run keeps
going; telemetry is never load-bearing.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .records import plain_int, plain_number

PHASES = ("training", "validation", "testing")
_PHASE_CODE = {name: code for code, name in enumerate(PHASES)}


class PowerSample(NamedTuple):
    """One wattage reading: seconds (monotonic), watts, phase tag."""

    timestamp_s: float
    watts: float
    phase: str


class PowerTrace(Sequence):
    """A power log held as read-only columns, one row per sample.

    ``timestamp_s`` and ``watts`` are float64 and ``phase`` is an int8
    index into PHASES. ``trace[i]`` is row i as a PowerSample. Build one
    with ``replay_source`` or ``PowerTrace.of``.
    """

    __slots__ = ("timestamp_s", "watts", "phase")

    def __init__(self, timestamp_s, watts, phase):
        for name, column in zip(self.__slots__, (timestamp_s, watts, phase)):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, samples) -> PowerTrace:
        """The trace of a sequence of PowerSamples; a PowerTrace is returned as is.

        Raises ValidationError if a sample's phase is not in PHASES, since
        the phase column can only hold an index into PHASES.
        """
        if isinstance(samples, PowerTrace):
            return samples
        n = len(samples)
        t, w, phase = zip(*samples) if n else ((),) * 3
        codes = np.fromiter(map(_PHASE_CODE.get, phase, repeat(-1)), np.int8, n)
        if (codes < 0).any():
            bad = phase[int(np.argmax(codes < 0))]
            raise ValidationError(f"sample has unknown phase {bad!r}, "
                                  f"expected one of {PHASES}")
        return cls(np.fromiter(t, np.float64, n), np.fromiter(w, np.float64, n), codes)

    def __len__(self) -> int:
        return len(self.timestamp_s)

    def __getitem__(self, i) -> PowerSample:
        i = index(i)
        return PowerSample(float(self.timestamp_s[i]), float(self.watts[i]),
                           PHASES[self.phase[i]])

    def __iter__(self):
        return map(PowerSample, self.timestamp_s.tolist(), self.watts.tolist(),
                   map(PHASES.__getitem__, self.phase.tolist()))


@dataclass(frozen=True)
class EnergyReport:
    joules: float
    average_watts: float
    duration_s: float
    sample_count: int


def integrate(samples: PowerTrace | list[PowerSample],
              phase: str | None = None) -> EnergyReport:
    """Trapezoidal energy of a trace or sample list, optionally for one phase.

    A list becomes a PowerTrace first, so a sample with an unknown phase
    is refused whatever the filter. Samples must be in nondecreasing time
    order after phase filtering. Fewer than two samples yield the zero
    report.
    """
    if phase is not None and phase not in PHASES:
        raise ValidationError(f"unknown phase {phase!r}, expected one of {PHASES}")
    trace = PowerTrace.of(samples)
    t, p = trace.timestamp_s, trace.watts
    if phase is not None:
        keep = trace.phase == _PHASE_CODE[phase]
        t, p = t[keep], p[keep]
    n = len(t)
    if n < 2:
        return EnergyReport(0.0, 0.0, 0.0, n)
    if not np.isfinite(t).all() or not np.isfinite(p).all():
        raise ValidationError("samples contain non-finite values")
    if (p < 0).any():
        raise ValidationError("negative wattage in samples")
    dt = np.diff(t)
    if (dt < 0).any():
        raise ValidationError("samples are not in time order")
    joules = float(np.sum((p[:-1] + p[1:]) * 0.5 * dt))
    duration = float(t[-1] - t[0])
    avg = joules / duration if duration > 0 else 0.0
    return EnergyReport(joules, avg, duration, n)


def energy_per_correct(joules: float, n_correct: int) -> float | None:
    """Millijoules per correct prediction; None when nothing is correct.

    The undefined marker (None, serialized as null) keeps a zero-correct
    run distinguishable from a zero-energy one.
    """
    joules = plain_number("joules", joules, 0)
    n_correct = plain_int("n_correct", n_correct, 0)
    if n_correct == 0:
        return None
    return 1000.0 * joules / n_correct


# Characters of a replay file parsed at a time: large enough that the
# per-block numpy calls cost little, small enough that the block's line
# and token strings stay a few MB.
_BLOCK_CHARS = 1 << 20


def replay_source(path) -> PowerTrace:
    """Parse a replay file: ``timestamp_s<TAB>watts<TAB>phase`` per line.

    One or two trailing tab-separated fields, such as a meter's cpu and
    memory percent, must read as floats and are then ignored: the trace
    holds only ``timestamp_s``, ``watts`` and ``phase``. Blank lines and
    # comments are skipped, and a leading UTF-8 byte-order mark is
    ignored. Numbers follow ``float()``.
    Timestamps must be nondecreasing. The first malformed line raises
    ParseError with its 1-based line number.
    """
    blocks = [PowerTrace.of(())]  # gives each column its dtype if no line is data
    last_t = None
    lines_before = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            block = _parse_block(lines, lines_before, last_t)
            if len(block):
                blocks.append(block)
                last_t = float(block.timestamp_s[-1])
            lines_before += len(lines)
    return PowerTrace(*(np.concatenate([getattr(b, name) for b in blocks])
                        for name in PowerTrace.__slots__))


def _parse_block(lines: list[str], lines_before: int,
                 last_t: float | None) -> PowerTrace:
    """Columns of one block of replay lines, or ParseError at its first bad line.

    ``lines_before`` counts the file's lines ahead of the block and
    ``last_t`` is the timestamp of the last sample ahead of it. Every
    check runs over the block's arrays; the first line that fails one is
    then refused by ``_line_error``, which states the first check it fails.
    """
    comment = np.array(list(map(str.lstrip, lines)), dtype="U1") == "#"
    blank = np.fromiter(map(str.isspace, lines), bool, len(lines))
    rows = np.flatnonzero(~(comment | blank))
    if len(rows) < len(lines):
        lines = [lines[r] for r in rows.tolist()]
    fields = np.fromiter(map(str.count, lines, repeat("\t")), np.intp, len(lines)) + 1
    # the columns stop at the first line with a bad field count; it is the
    # line refused unless a line before it fails another check
    bad_count = (fields < 3) | (fields > 5)
    m = int(np.argmax(bad_count)) if bad_count.any() else len(lines)
    fields = fields[:m]
    tokens = np.array("".join(lines[:m]).replace("\n", "\t").split("\t"), dtype=object)
    start = np.cumsum(fields) - fields
    t = _floats(tokens[start])[0]
    w = _floats(tokens[start + 1])[0]
    phase = np.fromiter(map(_PHASE_CODE.get, tokens[start + 2], repeat(-1)), np.int8, m)
    bad = ~np.isfinite(t) | ~np.isfinite(w) | (w < 0) | (phase < 0)
    bad[1:] |= t[1:] < t[:-1]
    if m and last_t is not None:
        bad[0] |= t[0] < last_t
    for k in (3, 4):
        has = fields > k
        bad[has] |= _floats(tokens[start[has] + k])[1]
    if bad.any() or m < len(lines):
        j = int(np.argmax(bad)) if bad.any() else m
        previous = float(t[j - 1]) if j else last_t
        raise ParseError(_line_error(lines[j], previous),
                         line=lines_before + int(rows[j]) + 1)
    return PowerTrace(t, w, phase)


def _floats(tokens) -> tuple[np.ndarray, np.ndarray]:
    """float() of every token, and which tokens float() refuses (they read NaN)."""
    refused = np.zeros(len(tokens), bool)
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens)), refused
    except ValueError:
        pass
    values = np.full(len(tokens), np.nan)
    for k, token in enumerate(tokens):
        try:
            values[k] = float(token)
        except ValueError:
            refused[k] = True
    return values, refused


def _line_error(raw: str, last_t: float | None) -> str:
    """Why one replay line is refused: the first check it fails, in order.

    A line that passes every other check is refused for its timestamp,
    which comes before ``last_t``.
    """
    parts = raw.rstrip("\n").split("\t")
    if not 3 <= len(parts) <= 5:
        return f"expected 3 to 5 tab-separated fields, got {len(parts)}"
    try:
        t = float(parts[0])
        w = float(parts[1])
    except ValueError as exc:
        return f"non-numeric field: {exc}"
    if not (math.isfinite(t) and math.isfinite(w)):
        return "non-finite timestamp or wattage"
    if w < 0:
        return f"negative wattage {w}"
    if parts[2] not in PHASES:
        return f"unknown phase {parts[2]!r}, expected one of {PHASES}"
    for field in parts[3:]:
        try:
            float(field)
        except ValueError:
            return f"non-numeric auxiliary field {field!r}"
    return f"timestamp {t} out of order (previous {last_t})"


def check_poll_hz(hz: float) -> None:
    """Raise ValidationError unless hz is a number, not a bool, in (0, 1000] Hz."""
    if plain_number("poll rate", hz, 0, strict=True) > 1000:
        raise ValidationError(f"poll rate must be in (0, 1000] Hz, got {hz}")


class LiveSource:
    """Polls an external command for wattage readings on a worker thread.

    One producer thread appends samples in time order; the consumer
    reads them only after ``stop()`` joins the thread, so no further
    synchronization is needed. Each poll runs the command once and
    parses the first token of its stdout as watts.
    """

    def __init__(self, command: str, hz: float = 1.0):
        if not command or not command.strip():
            raise ValidationError("telemetry command is empty")
        check_poll_hz(hz)
        self.command = shlex.split(command)
        self.interval_s = 1.0 / hz
        self.available = True
        self._phase = "training"
        self._samples: list[PowerSample] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def set_phase(self, phase: str) -> None:
        if phase not in PHASES:
            raise ValidationError(f"unknown phase {phase!r}, expected one of {PHASES}")
        self._phase = phase

    def start(self) -> None:
        if self._thread is not None:
            raise ValidationError("live source already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _poll_once(self) -> float | None:
        try:
            proc = subprocess.run(self.command, capture_output=True, text=True,
                                  timeout=max(2.0, 2 * self.interval_s))
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0:
            return None
        try:
            watts = float(proc.stdout.split()[0])
        except (IndexError, ValueError):
            return None
        if not (np.isfinite(watts) and watts >= 0):
            return None
        return watts

    def _run(self) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            watts = self._poll_once()
            if watts is None:
                self.available = False
                return
            self._samples.append(PowerSample(time.monotonic(), watts, self._phase))
            remaining = self.interval_s - (time.monotonic() - started)
            if remaining > 0:
                self._stop.wait(remaining)

    def stop(self) -> list[PowerSample]:
        """Stop polling and hand back everything captured so far."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        return list(self._samples)


def live_source(command: str | None, hz: float = 1.0) -> LiveSource | None:
    """Build (but do not start) a live telemetry source; None means off."""
    if command is None or not command.strip():
        return None
    return LiveSource(command, hz)
