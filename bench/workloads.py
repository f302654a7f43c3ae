"""The four benchmark workloads, each a closed loop with one caller.

Every call starts when the previous one returns. A workload builds its
inputs from the workload seed alone, times its operations from outside
the package, and checks the outputs. All package calls go through module
attributes (``ar.training.train``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from collections import Counter, defaultdict

import numpy as np

SEPARATION = 1.0    # cli default for synthetic blobs
LR = 1e-3
WEIGHT_DECAY = 1e-5  # cli default
CHECKED_FIELDS = ("test_accuracy", "test_loss", "activation_energy", "epochs_run")


def derive(seed: int, *tags: int) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


class Meter:
    """Per-operation rate samples (work / seconds) for each named metric."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, work: float, seconds: float) -> None:
        self.samples[name].append(work / seconds)

    def median(self, name: str) -> float:
        """Median rate; 0 when every operation of that kind failed."""
        vals = self.samples[name]
        return float(np.median(vals)) if vals else 0.0

    def tail(self, name: str) -> tuple[float, float] | None:
        """Highest percentile with at least ten slower samples beyond it.

        Rates are higher-is-better, so percentile p of the per-operation
        time is percentile 100 - p of the rates.
        """
        vals = self.samples[name]
        for p in (99.9, 99, 90):
            if len(vals) * (1 - p / 100) >= 10:
                return p, float(np.percentile(vals, 100 - p))
        return None


class Workload:
    """Shared bookkeeping: attempted and failed operations, counts."""

    name = ""
    rates: tuple[str, ...] = ()  # named end-to-end rates, all in 1/s
    gated: tuple[str, ...] = ()  # the rates whose geometric mean is gated
    # Peak RSS is read after this many measured cycles, a fixed amount of
    # work: the cyclic collector frees autodiff graphs late, so the peak
    # creeps up with every train() call and would grow with machine speed.
    rss_cycles = 1

    def __init__(self, ar, seed: int, tiny: bool, workdir: str):
        self.ar = ar
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self._next = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run_seed(self) -> int:
        self._next += 1
        return derive(self.seed, 1, self._next)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call ``fn``, timing it; a raised error counts as one failure.

        Returns (result, seconds), or (None, None) after a failure.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any error is a failed operation, not a crash
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - t0

    def expect(self, ok: bool, what: str) -> bool:
        """One output check, counted as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def synthesize(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def cycle(self, meter: Meter) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Checks run once after the measured window."""

    def layer_counts(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts the workload observes at its own call sites."""
        c = self.counts
        expected = c["records.expected"]
        return {
            "records.bytes_per_record": (c["records.bytes"] / c["records.saved"]
                                         if c["records.saved"] else 0.0, "bytes"),
            "records.loaded_ratio": (c["records.loaded"] / expected
                                     if expected else 0.0, "ratio"),
            "records.skipped": (float(c["records.skipped"]), "count"),
            "power.phase_excess_j": (float(c["power.phase_excess_j"]), "J"),
        }

    # -- helpers shared by the training workloads -------------------------
    def _config(self, spec, seed: int, epochs: int, batch: int, lam: float):
        return self.ar.training.RunConfig(
            model=spec, lr=LR, batch_size=batch, max_epochs=epochs,
            patience=epochs, weight_decay=WEIGHT_DECAY, lam=lam, seed=seed)

    def _steps(self, data, batch: int, epochs: int) -> int:
        """Optimizer steps of one train() call: the split rule of train()."""
        n = data.train_x.shape[0]
        n_fit = n - int(round(0.1 * n))
        return epochs * math.ceil(n_fit / batch)

    def _same(self, a, b) -> bool:
        return all(getattr(a, f) == getattr(b, f) for f in CHECKED_FIELDS)


class TrainWorkload(Workload):
    """Back-to-back train() + save_record, then evaluate on the test split."""

    archs: tuple[str, ...] = ()
    classes = dim = per_class = epochs = 0
    hidden = 64
    batch = 32
    lam = 1e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.first: dict[str, tuple] = {}  # arch -> (config, record)
        self.records_dir = os.path.join(self.workdir, "records")

    def spec(self, arch: str):
        return self.ar.models.ModelSpec(
            arch, self.dim, self.hidden, self.classes,
            glia_ratio=1.0 if arch == "bimodal" else None)

    def synthesize(self) -> None:
        self.data = self.ar.datasets.synth_blobs(
            self.classes, self.dim, self.per_class, SEPARATION,
            derive(self.seed, 0), name="blobs")

    def warm_up(self) -> None:
        for arch in self.archs:
            self.ar.training.train(self._config(self.spec(arch), 0, 1, self.batch,
                                                self.lam), self.data)

    def cycle(self, meter: Meter) -> None:
        ar, data = self.ar, self.data
        rows = 0
        eval_s = 0.0
        steps = self._steps(data, self.batch, self.epochs)
        for arch in self.archs:
            config = self._config(self.spec(arch), self.run_seed(), self.epochs,
                                  self.batch, self.lam)
            result, seconds = self.attempt(f"train {arch}", ar.training.train,
                                           config, data)
            if result is None:
                continue
            model, record = result
            self.first.setdefault(arch, (config, record))
            if not self.expect(record.status == "ok"
                               and record.epochs_run == self.epochs,
                               f"{arch} seed {config.seed}: status {record.status}, "
                               f"{record.epochs_run} epochs"):
                continue
            meter.add(f"train_steps_per_s.{arch}", steps, seconds)
            path, _ = self.attempt("save_record", ar.records.save_record, record,
                                   self.records_dir)
            if path is not None:
                self.counts["records.saved"] += 1
                self.counts["records.bytes"] += os.path.getsize(path)
            out, seconds = self.attempt(f"evaluate {arch}", ar.training.evaluate,
                                        model, data.test_x, data.test_y)
            if out is not None:
                self.expect(out[0] == record.test_accuracy,
                            f"{arch}: evaluate accuracy {out[0]} differs from the "
                            f"record's {record.test_accuracy}")
                rows += data.test_x.shape[0]
                eval_s += seconds
        if rows:
            meter.add("eval_rows_per_s", rows, eval_s)

    def check(self) -> None:
        for arch, (config, record) in self.first.items():
            result, _ = self.attempt(f"repeat {arch}", self.ar.training.train,
                                     config, self.data)
            if result is not None:
                again = result[1]
                self.expect(self._same(record, again),
                            f"repeat of ({arch}, seed {config.seed}) differs: "
                            + ", ".join(f"{f} {getattr(record, f)!r} vs "
                                        f"{getattr(again, f)!r}"
                                        for f in CHECKED_FIELDS))


class TrainDense(TrainWorkload):
    name = "train-dense"
    rss_cycles = 10
    archs = ("mlp", "bimodal", "physics")
    rates = gated = ("train_steps_per_s.mlp", "train_steps_per_s.bimodal",
                     "train_steps_per_s.physics", "eval_rows_per_s")

    def __init__(self, *args):
        super().__init__(*args)
        # cli-default blobs: 4 classes x 32 features x 250 per class
        self.classes, self.dim = 4, 32
        self.per_class = 20 if self.tiny else 250
        self.epochs = 1 if self.tiny else 5


class TrainCnn(TrainWorkload):
    name = "train-cnn"
    rss_cycles = 4
    archs = ("cnn",)
    rates = gated = ("train_steps_per_s.cnn", "eval_rows_per_s")

    def __init__(self, *args):
        super().__init__(*args)
        # MNIST-shaped synthetic blobs: the IDX files are not available offline
        self.classes, self.dim = 10, 784
        self.per_class = 4 if self.tiny else 60
        self.epochs = 1 if self.tiny else 2


class Sweep(Workload):
    """run_lambda_sweep over DEFAULT_LAMBDAS x 3 seeds, saved per lambda."""

    name = "sweep"
    rates = gated = ("sweep_cells_per_s",)
    batch = 128

    def __init__(self, *args):
        super().__init__(*args)
        self.per_class = 30 if self.tiny else 1000
        self.epochs = 1 if self.tiny else 10
        self.template = self.ar.models.ModelSpec("bimodal", 32, 64, 4, glia_ratio=1.0)
        self.grids = 0
        self.baseline: list = []  # lam = 0 records of the first grid

    def synthesize(self) -> None:
        self.data = self.ar.datasets.synth_blobs(4, 32, self.per_class, SEPARATION,
                                                 derive(self.seed, 0), name="blobs")

    def warm_up(self) -> None:
        self.ar.training.train(self._config(self.template, 0, self.epochs,
                                            self.batch, 1e-3), self.data)

    def _grid(self, seeds, out_dir):
        records: list = []
        report = self.ar.sweep.run_lambda_sweep(
            self.data, self.template, self.ar.sweep.DEFAULT_LAMBDAS, seeds,
            lr=LR, batch_size=self.batch, epochs=self.epochs,
            weight_decay=WEIGHT_DECAY, records=records)
        # one subdirectory per lambda, as `actreg sweep --records-dir-out` does
        paths = [self.ar.records.save_record(r, os.path.join(out_dir, f"lam_{r.lam:g}"))
                 for r in records]
        return report, records, paths

    def cycle(self, meter: Meter) -> None:
        self.grids += 1
        seeds = [derive(self.seed, 2, self.grids, k) for k in range(3)]
        out_dir = os.path.join(self.workdir, f"grid{self.grids}")
        result, seconds = self.attempt("sweep", self._grid, seeds, out_dir)
        if result is None:
            return
        report, records, paths = result
        cells = len(self.ar.sweep.DEFAULT_LAMBDAS) * len(seeds)
        self.attempted += cells - 1  # one operation per cell
        self.failures.extend(f"cell lam={c.lam:g} seed={c.seed}: {c.status}"
                             for c in report.failed)
        self.expect(len(report.cells) == cells and len(records) == cells,
                    f"sweep returned {len(report.cells)} cells, expected {cells}")
        meter.add("sweep_cells_per_s", len(report.cells), seconds)
        self.counts["records.saved"] += len(paths)
        self.counts["records.bytes"] += sum(os.path.getsize(p) for p in paths)
        if not self.baseline:
            self.baseline = [r for r in records if r.lam == 0.0]
        # read the cell records back as `actreg analyze --records <dir>` would
        loaded, _ = self.attempt("load_records", self.ar.records.load_records, out_dir)
        if loaded is not None:
            self.counts["records.expected"] += len(paths)
            self.counts["records.loaded"] += len(loaded[0])
            self.counts["records.skipped"] += len(loaded[1])
            self.failures.extend(f"skipped record file: {m}" for m in loaded[1])
        shutil.rmtree(out_dir, ignore_errors=True)

    def check(self) -> None:
        """Every lam = 0 cell equals a plain train() with its config, bit for bit."""
        self.expect(bool(self.baseline), "no lam = 0 cell finished")
        for cell in self.baseline:
            config = self._config(self.template, cell.seed, self.epochs, self.batch, 0.0)
            result, _ = self.attempt("plain train", self.ar.training.train,
                                     config, self.data)
            if result is not None:
                self.expect(self._same(cell, result[1]),
                            f"lam = 0 cell seed {cell.seed} differs from plain train()")


class Analyze(Workload):
    """Save 1,200 records, load and analyze them, replay a power log."""

    name = "analyze"
    rss_cycles = 3
    rates = ("save_records_per_s", "analyze_records_per_s", "replay_samples_per_s")
    # Record writes are reported but not gated: on a shared host the file
    # system's create+rename latency swings them 2.5x between runs.
    gated = ("analyze_records_per_s", "replay_samples_per_s")
    archs = ("bimodal", "cnn", "mlp", "physics")
    datasets = ("blobs-a", "blobs-b", "blobs-c")
    responses = ("test_accuracy", "test_loss", "activation_energy")

    def __init__(self, *args):
        super().__init__(*args)
        self.per_cell = 4 if self.tiny else 100
        self.samples = 2_000 if self.tiny else 100_000
        self.log_path = os.path.join(self.workdir, "power.tsv")
        self.cycles = 0
        models = self.ar.models
        self.param_counts = {a: models.param_count_for(self._spec(a)) for a in self.archs}
        self._write_power_log()

    def _spec(self, arch: str):
        return self.ar.models.ModelSpec(arch, 784, 64, 10,
                                        glia_ratio=1.0 if arch == "bimodal" else None)

    def _write_power_log(self) -> None:
        """A 10 Hz wall-power log tagged the way train() tags phases.

        Each epoch is 80 training samples then 20 validation samples;
        the last 1% of the log is the testing phase. Timestamps and
        watts are written with repr, so the file holds these floats
        exactly.
        """
        gen = np.random.default_rng(derive(self.seed, 3))
        n = self.samples
        n_test = n // 100
        idx = np.arange(n)
        phase = np.where((idx % 100) < 80, "training", "validation")
        phase[n - n_test:] = "testing"
        base = np.select([phase == "training", phase == "validation"], [120.0, 80.0], 90.0)
        watts = np.abs(base + gen.normal(0.0, 5.0, n))
        self.t = [0.1 * k for k in range(n)]
        self.w = [float(x) for x in watts]
        with open(self.log_path, "w", encoding="utf-8") as fh:
            fh.write("# timestamp_s\twatts\tphase\n")
            fh.writelines(f"{t!r}\t{w!r}\t{p}\n" for t, w, p in zip(self.t, self.w, phase))

    def _records(self, synth_seed: int) -> list:
        """4 archs x 3 datasets x per_cell seeds at one lambda.

        The twelve (arch, dataset) cells are the twelve clusters of one
        synth_blobs draw; its three features become the three responses.
        """
        ar = self.ar
        d = ar.datasets.synth_blobs(12, 3, self.per_cell, 2.0, synth_seed, name="cells")
        x = np.vstack([d.train_x, d.test_x])
        y = np.concatenate([d.train_y, d.test_y])
        replicate = Counter()
        out = []
        for (f0, f1, f2), label in zip(x.tolist(), y.tolist()):
            arch = self.archs[label // 3]
            replicate[label] += 1
            out.append(ar.records.ExperimentRecord(
                architecture=arch, dataset=self.datasets[label % 3], hidden_dim=64,
                input_dim=784, output_dim=10,
                glia_ratio=1.0 if arch == "bimodal" else None,
                activations=list(ar.models.ARCH_ACTIVATIONS[arch]), lr=LR,
                batch_size=32, weight_decay=WEIGHT_DECAY, lam=1e-3, max_epochs=5,
                patience=5, epochs_run=5, seed=1000 + replicate[label], status="ok",
                test_accuracy=0.5 + 0.45 * math.tanh(0.25 * f0),
                test_loss=math.exp(0.2 * f1), activation_energy=math.exp(2.0 + 0.3 * f2),
                training_duration_seconds=1.0 + abs(f0), hardware="synthetic",
                param_count=self.param_counts[arch]))
        return out

    def synthesize(self) -> None:
        self.pending = self._records(derive(self.seed, 4, 0))

    def warm_up(self) -> None:
        ar = self.ar
        warm_dir = os.path.join(self.workdir, "warm")
        per_cell = Counter()
        for r in self.pending:  # four records of every cell
            per_cell[r.architecture, r.dataset] += 1
            if per_cell[r.architecture, r.dataset] <= 4:
                ar.records.save_record(r, warm_dir)
        loaded, _ = ar.records.load_records(warm_dir)
        for response in self.responses:
            ar.analysis.analyze_records(loaded, response)
        ar.power.integrate(ar.power.replay_source(self.log_path))
        shutil.rmtree(warm_dir)

    def _analyze(self, directory):
        loaded, issues = self.ar.records.load_records(directory)
        tables = {r: self.ar.analysis.analyze_records(loaded, r) for r in self.responses}
        return loaded, issues, tables

    def _replay(self):
        power = self.ar.power
        samples = power.replay_source(self.log_path)
        total = power.integrate(samples)
        phases = {p: power.integrate(samples, phase=p) for p in power.PHASES}
        return samples, total, phases

    def cycle(self, meter: Meter) -> None:
        ar = self.ar
        self.cycles += 1
        records = self.pending
        directory = os.path.join(self.workdir, f"records{self.cycles}")

        for r in records:  # one sample per save, so a slow write shows in the tail
            path, seconds = self.attempt("save_record", ar.records.save_record, r,
                                         directory)
            if path is not None:
                meter.add("save_records_per_s", 1, seconds)
                self.counts["records.saved"] += 1
                self.counts["records.bytes"] += os.path.getsize(path)

        result, seconds = self.attempt("load_records + analyze_records",
                                       self._analyze, directory)
        if result is not None:
            loaded, issues, tables = result
            meter.add("analyze_records_per_s", len(loaded), seconds)
            self.counts["records.expected"] += len(records)
            self.counts["records.loaded"] += len(loaded)
            self.counts["records.skipped"] += len(issues)
            self.failures.extend(f"skipped record file: {m}" for m in issues)
            self.expect(len(loaded) == len(records),
                        f"loaded {len(loaded)} of {len(records)} records")
            self._check_anova(loaded, tables)

        result, seconds = self.attempt("replay_source + integrate", self._replay)
        if result is not None:
            samples, total, phases = result
            meter.add("replay_samples_per_s", len(samples), seconds)
            self._check_replay(samples, total, phases)

        shutil.rmtree(directory, ignore_errors=True)
        self.pending = self._records(derive(self.seed, 4, self.cycles))

    def _check_anova(self, loaded, tables) -> None:
        """analyze_records' ANOVA equals a direct two-way call on the same rows."""
        for response, t in tables.items():
            rows = [(r.architecture, r.dataset, getattr(r, response)) for r in loaded
                    if r.status == "ok" and getattr(r, response) is not None]
            direct = self.ar.stats.two_way_anova_type2(
                rows, factor_names=("architecture", "dataset"))
            reported = [(row[0], row[1], row[2]) for row in t[0].rows]
            expected = [(s.source, s.f, s.p) for s in direct]
            self.expect(reported == expected,
                        f"{response}: analyze_records ANOVA {reported} differs "
                        f"from two_way_anova_type2 {expected}")

    def _check_replay(self, samples, total, phases) -> None:
        """The session total equals an independent trapezoid over all samples.

        Summation order differs from integrate's, hence the 1e-9
        relative tolerance. The phase excess is reported, not checked:
        integrating a phase across the other phases' gaps is a known
        defect that this log exposes.
        """
        t, w = self.t, self.w
        trapezoid = math.fsum((w[k] + w[k + 1]) * 0.5 * (t[k + 1] - t[k])
                              for k in range(len(t) - 1))
        self.expect(len(samples) == len(t),
                    f"replayed {len(samples)} samples, wrote {len(t)}")
        self.expect(math.isclose(total.joules, trapezoid, rel_tol=1e-9),
                    f"session total {total.joules} J differs from the trapezoid "
                    f"{trapezoid} J")
        excess = sum(r.joules for r in phases.values()) - total.joules
        self.counts["power.phase_excess_j"] = excess


WORKLOADS = {w.name: w for w in (TrainDense, TrainCnn, Sweep, Analyze)}
