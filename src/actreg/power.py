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

import codecs
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


# Characters of a replay file read at a time, by the plain-log scan and by
# the line parser: large enough that the per-block numpy calls cost little,
# small enough that a block's bytes, lines and tokens stay a few MB.
_BLOCK_CHARS = 1 << 20

# What a plain log's data lines may hold: the bytes of decimal numbers, the
# tab and the newline, and the letters of the phase names. No other byte
# reaches np.loadtxt, which reads some of them unlike float(): it takes a
# control byte such as \x1f beside a number as space, and its bytes column
# drops a phase's trailing NULs, so "training\x00" would read as a name.
# A letter in a number makes np.loadtxt refuse it or read NaN. NaN fails the
# timestamp and wattage checks, and the line parser accepts it in a trailing
# field too.
_DATA_BYTES = b"0123456789+-.eE\t\n" + "".join(PHASES).encode()
_COMMENT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"
_PHASE_NAMES = np.array(PHASES, "S")


def replay_source(path) -> PowerTrace:
    """Parse a replay file: ``timestamp_s<TAB>watts<TAB>phase`` per line.

    One or two trailing tab-separated fields, such as a meter's cpu and
    memory percent, must read as floats and are then ignored: the trace
    holds only ``timestamp_s``, ``watts`` and ``phase``. Blank lines and
    # comments are skipped, and a leading UTF-8 byte-order mark is
    ignored. Numbers follow ``float()``.
    Timestamps must be nondecreasing. The first malformed line raises
    ParseError with its 1-based line number; a byte that is not UTF-8
    makes its line malformed.

    A plain log in a file, not a pipe, is read by numpy's C text reader.
    A plain log is ASCII with ``\n`` line ends, an optional byte-order
    mark, ``#`` comment lines only above the first sample, and the same
    number of fields, three to five, on every data line, as a meter
    writes the same columns on every line; its numbers are written with
    digits, signs, points and exponents only. Every other log is read
    line by line, and so is a plain log that fails a check, so every
    ParseError comes from the line parser. Both routes read a number
    with the same correctly rounded conversion as ``float()``, so a log
    gives the same columns, bit for bit, whichever route reads it.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        if fh.seekable():  # a pipe can be read once, so the line parser reads it
            trace = _read_plain(fh)
            if trace is not None:
                return trace
            fh.seek(0)
        return _read_lines(fh)


def _read_plain(fh) -> PowerTrace | None:
    """The trace of a plain log, read by np.loadtxt, or None.

    None means the log is not plain or a value fails a check. ``fh`` is
    the log as text, at its start. One scan of its bytes, in blocks of
    ``_BLOCK_CHARS`` completed to a line end, counts the leading comment
    lines and takes the field count from the first data line; it refuses
    a block with a byte outside ``_DATA_BYTES`` or another tab count than
    ``fields - 1`` per line. np.loadtxt then reads every field, so numpy
    itself refuses a row of another width or a number float() refuses.
    The phase is read as bytes one longer than the longest name, so a
    longer field equals no name, and its code is the index of the name
    those bytes equal.
    """
    raw = fh.buffer
    if raw.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        raw.seek(0)
    fields = comments = lines = 0
    while block := raw.read(_BLOCK_CHARS) + raw.readline():
        if not block.endswith(b"\n"):
            block += b"\n"  # the last line has no line end
        if not fields:  # no data line yet
            start = 0
            while block.startswith(b"#", start):
                start = block.index(b"\n", start) + 1
                comments += 1
            if block[:start].translate(None, _COMMENT_BYTES):
                return None
            block = block[start:]
            if not block:
                continue
            fields = block.count(b"\t", 0, block.index(b"\n")) + 1
            if not 3 <= fields <= 5:
                return None
        n = block.count(b"\n")
        if block.translate(None, _DATA_BYTES) or block.count(b"\t") != (fields - 1) * n:
            return None
        lines += n
    fh.seek(0)
    if not lines:
        return PowerTrace.of(())  # np.loadtxt warns on a log with no data
    # np.loadtxt gets the open file: given a path, it picks a decompressor
    # by the file name's suffix and would not read the bytes scanned above.
    # It reads to the file's end (max_rows would warn on a blank line), so
    # it returns other rows than the lines scanned if one of them is blank
    # or the log changed since it was scanned.
    dtype = f"f8,f8,S{_PHASE_NAMES.itemsize + 1}" + ",f8" * (fields - 3)
    try:
        rows = np.loadtxt(fh, dtype, delimiter="\t", comments=None,
                          skiprows=comments, ndmin=1)
    except ValueError:
        return None
    t, w = rows["f0"].copy(), rows["f1"].copy()
    phase = np.full(len(rows), -1, np.int8)
    for code, name in enumerate(_PHASE_NAMES):
        phase[rows["f2"] == name] = code
    if len(rows) != lines or (phase < 0).any() or _bad_rows(t, w, None).any():
        return None
    return PowerTrace(t, w, phase)


def _read_lines(fh) -> PowerTrace:
    """The trace of a log read as text in blocks of lines, or ParseError at its first bad line."""
    blocks = [PowerTrace.of(())]  # gives each column its dtype if no line is data
    last_t = None
    lines_before = 0
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
    check runs over the block's arrays. A block that fails one is read
    again one line at a time, with the checks in order, and its first
    bad line is refused; a byte that is not UTF-8 fails its line before
    any other check.
    """
    text = "".join(lines)
    comment = np.array(list(map(str.lstrip, lines)), dtype="U1") == "#"
    blank = np.fromiter(map(str.isspace, lines), bool, len(lines))
    rows = np.flatnonzero(~(comment | blank))
    # every line's fields are tokens of the block, comments and blank lines too
    fields = np.fromiter(map(str.count, lines, repeat("\t")), np.intp, len(lines)) + 1
    start, fields = (np.cumsum(fields) - fields)[rows], fields[rows]
    try:
        # surrogateescape reads a byte that is not UTF-8 as a lone surrogate,
        # which UTF-8 cannot encode: UnicodeEncodeError is a ValueError
        if not text.isascii():
            text.encode("utf-8")
        if ((fields < 3) | (fields > 5)).any():
            raise ValueError("a data line has too few or too many fields")
        tokens = text.replace("\n", "\t").split("\t")  # a newline ends a field too
        del text  # the block is held once, as its tokens
        tokens = np.array(tokens, dtype=object)
        n = len(rows)
        t = np.fromiter(map(float, tokens[start]), np.float64, n)
        w = np.fromiter(map(float, tokens[start + 1]), np.float64, n)
        phase = np.fromiter(map(_PHASE_CODE.__getitem__, tokens[start + 2]), np.int8, n)
        for k in (3, 4):  # a trailing field must read as a float, then it is dropped
            np.fromiter(map(float, tokens[start[fields > k] + k]), np.float64)
        if not _bad_rows(t, w, last_t).any():
            return PowerTrace(t, w, phase)
    except (ValueError, KeyError):
        pass
    samples = []
    for number, raw in enumerate(lines, lines_before + 1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"byte {ord(raw[exc.start]) - 0xDC00:#04x} is not UTF-8",
                             line=number) from None
        if raw.isspace() or raw.lstrip().startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if not 3 <= len(parts) <= 5:
            raise ParseError(f"expected 3 to 5 tab-separated fields, got {len(parts)}",
                             line=number)
        try:
            t, w = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=number) from None
        if not (math.isfinite(t) and math.isfinite(w)):
            raise ParseError("non-finite timestamp or wattage", line=number)
        if w < 0:
            raise ParseError(f"negative wattage {w}", line=number)
        if parts[2] not in PHASES:
            raise ParseError(f"unknown phase {parts[2]!r}, expected one of {PHASES}",
                             line=number)
        for field in parts[3:]:
            try:
                float(field)
            except ValueError:
                raise ParseError(f"non-numeric auxiliary field {field!r}",
                                 line=number) from None
        if last_t is not None and t < last_t:
            raise ParseError(f"timestamp {t} out of order (previous {last_t})",
                             line=number)
        last_t = t
        samples.append((t, w, parts[2]))
    return PowerTrace.of(samples)


def _bad_rows(t: np.ndarray, w: np.ndarray, last_t: float | None) -> np.ndarray:
    """Which samples fail a value check, the same on either route.

    A sample fails if its timestamp or wattage is not finite, its wattage
    is negative, or its timestamp comes before the one ahead of it,
    ``last_t`` for the first.
    """
    bad = ~np.isfinite(t) | ~np.isfinite(w) | (w < 0)
    bad[1:] |= t[1:] < t[:-1]
    if len(t) and last_t is not None:
        bad[0] |= t[0] < last_t
    return bad


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
