"""Power telemetry: capture, replay, and trapezoidal energy integration.

Samples are wattage readings tagged with the run phase that produced
them. Energy is the trapezoidal integral of power over time; fewer than
two samples integrate to a zero report rather than an error, because a
too-short capture is an expected condition, not a bug.

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
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .records import plain_int, plain_number

PHASES = ("training", "validation", "testing")


class PowerSample(NamedTuple):
    """One wattage reading: seconds (monotonic), watts, phase tag.

    ``cpu_percent`` and ``memory_percent`` are auxiliary readings kept
    when a replay file carries them; they never enter the integral.
    A named tuple, because replay builds one per log line.
    """

    timestamp_s: float
    watts: float
    phase: str
    cpu_percent: float | None = None
    memory_percent: float | None = None


# Column getters by field position; C-level maps over them take the
# columns of a long replay faster than a Python loop over the samples.
_TIME, _WATTS, _PHASE = itemgetter(0), itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class EnergyReport:
    joules: float
    average_watts: float
    duration_s: float
    sample_count: int


def integrate(samples: list[PowerSample], phase: str | None = None) -> EnergyReport:
    """Trapezoidal energy of a sample list, optionally for one phase.

    Samples must be in nondecreasing time order after phase filtering.
    Fewer than two samples yield the zero report.
    """
    if phase is not None:
        if phase not in PHASES:
            raise ValidationError(f"unknown phase {phase!r}, expected one of {PHASES}")
        samples = [s for s in samples if s.phase == phase]
    n = len(samples)
    if n < 2:
        return EnergyReport(0.0, 0.0, 0.0, n)
    if not set(map(_PHASE, samples)).issubset(PHASES):
        bad = next(s.phase for s in samples if s.phase not in PHASES)
        raise ValidationError(f"sample has unknown phase {bad!r}, "
                              f"expected one of {PHASES}")
    t = np.fromiter(map(_TIME, samples), np.float64, n)
    p = np.fromiter(map(_WATTS, samples), np.float64, n)
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
    if not (np.isfinite(joules) and joules >= 0):
        raise ValidationError(f"joules must be finite and >= 0, got {joules}")
    n_correct = plain_int("n_correct", n_correct, 0)
    if n_correct == 0:
        return None
    return 1000.0 * joules / n_correct


def replay_source(path) -> list[PowerSample]:
    """Parse a replay file: ``timestamp_s<TAB>watts<TAB>phase`` per line.

    Two optional trailing tab-separated floats are read as cpu_percent
    and memory_percent. Blank lines and # comments are skipped.
    Timestamps must be nondecreasing. Any malformed line raises
    ParseError with its 1-based line number.
    """
    samples: list[PowerSample] = []
    last_t = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            aux: list[float | None] = [None, None]
            for k, field in enumerate(parts[3:5]):
                try:
                    aux[k] = float(field)
                except ValueError:
                    raise ParseError(f"non-numeric auxiliary field {field!r}",
                                     line=lineno) from None
            if last_t is not None and t < last_t:
                raise ParseError(f"timestamp {t} out of order (previous {last_t})",
                                 line=lineno)
            last_t = t
            samples.append(PowerSample(t, w, phase, aux[0], aux[1]))
    return samples


def check_poll_hz(hz: float) -> None:
    """Raise ValidationError unless hz is a number, not a bool, in (0, 1000] Hz."""
    if not 0 < plain_number("poll rate", hz) <= 1000:
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
