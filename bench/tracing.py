"""Spans recorded around actreg's public functions, from outside the package.

A ``Tracer`` replaces module attributes at the places where they are
called (``actreg.training.forward_traced``, ``actreg.sweep.train``, ...)
with wrappers that record one span per call: name, start, end, parent
span and a few counts taken at the same boundary. Nothing in ``src/`` is
edited; ``uninstall`` puts every original back. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

ARCHS = ("mlp", "bimodal", "physics", "cnn")
ALL = "*"  # key for every span of a name, whatever its architecture


def _graph_nodes(loss) -> int:
    """Nodes reachable from the loss: what one backward pass visits."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _arch_of_model(model, *_a, **_k):
    return {"arch": model.spec.arch}


def _arch_of_spec(spec, *_a, **_k):
    return {"arch": spec.arch}


def _arch_of_config(config, *_a, **_k):
    return {"arch": config.model.arch}


class Tracer:
    """In-memory span recorder plus the table of call sites it wraps."""

    def __init__(self, ar):
        self.ar = ar
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, attrs: dict | None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attrs)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args, **kwargs)`` and ``after(result)`` return dicts of
        attributes (arch, counts) stored on the span; both run outside
        the timed interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else None
            i = self._open(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                extra = after(result)
                self.attrs[i] = {**(attrs or {}), **extra}
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced call site of the actreg package."""
        ar = self.ar
        t, m, o, tr, sw = ar.tensor, ar.models, ar.objective, ar.training, ar.sweep
        # tensor: autodiff, optimizer, and the ops the conv model adds
        self.wrap(t.Tensor, "backward", "tensor.backward",
                  before=lambda loss: {"nodes": _graph_nodes(loss)})
        self.wrap(t.Adam, "step", "tensor.adam")
        self.wrap(m, "conv2d", "tensor.conv2d")
        self.wrap(m, "max_pool2", "tensor.max_pool2")
        self.wrap(tr, "softmax_cross_entropy", "tensor.softmax_ce")
        # models
        self.wrap(tr, "forward_traced", "models.forward", before=_arch_of_model)
        self.wrap(o, "forward_traced", "models.forward", before=_arch_of_model)
        self.wrap(tr, "build_model", "models.build", before=_arch_of_spec)
        # objective
        self.wrap(tr, "activation_energy", "objective.energy")
        self.wrap(tr, "dataset_activation_energy", "objective.dataset_energy")
        # training: validation runs through the private _eval_objective
        after_train = lambda res: {"diverged": int(res[1].status != "ok")}
        self.wrap(tr, "train", "training.train", before=_arch_of_config,
                  after=after_train)
        self.wrap(sw, "train", "training.train", before=_arch_of_config,
                  after=after_train)
        self.wrap(tr, "evaluate", "training.evaluate", before=_arch_of_model)
        self.wrap(tr, "_eval_objective", "training.validate", before=_arch_of_model)
        # sweep
        self.wrap(sw, "run_lambda_sweep", "sweep.run",
                  after=lambda rep: {"failed": len(rep.failed)})
        # records
        self.wrap(ar.records, "save_record", "records.save")
        self.wrap(ar.records, "load_records", "records.load")
        # stats, at the call sites analysis uses
        an = ar.analysis
        for fn, name in (("two_way_anova_type2", "stats.anova"),
                         ("one_way_anova", "stats.anova"),
                         ("tukey_hsd", "stats.tukey"),
                         ("bootstrap_ci", "stats.bootstrap"),
                         ("coefficient_of_variation", "stats.summary"),
                         ("rank_variance", "stats.summary"),
                         ("rank_within", "stats.summary")):
            self.wrap(an, fn, name)
        self.wrap(an, "analyze_records", "analysis.analyze")
        # power
        self.wrap(ar.power, "replay_source", "power.replay")
        self.wrap(ar.power, "integrate", "power.integrate")
        # datasets
        self.wrap(ar.datasets, "synth_blobs", "datasets.synth")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span.

        Times are milliseconds per call (mean, so shares add up); self
        time is a span's duration minus the durations of its children,
        which nest and never overlap because the benchmark runs one
        thread. Layers no span reached report 0.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        arch = [None] * n
        train_of = [-1] * n  # nearest enclosing training.train span
        for i in range(n):  # parents precede children
            a = (self.attrs[i] or {}).get("arch")
            p = self.parent[i]
            arch[i] = a if a is not None else (arch[p] if p >= 0 else None)
            train_of[i] = (i if self.name[i] == "training.train"
                           else train_of[p] if p >= 0 else -1)

        by = defaultdict(list)  # (name, arch) and (name, ALL) -> span ids
        for i in range(n):
            by[(self.name[i], ALL)].append(i)
            if arch[i] is not None:
                by[(self.name[i], arch[i])].append(i)

        def mean_ms(name, a=ALL, self_time=False):
            ids = by.get((name, a), [])
            if not ids:
                return 0.0
            total = sum(dur[i] - child[i] if self_time else dur[i] for i in ids)
            return 1000.0 * total / len(ids)

        def attr_mean(name, key, a=ALL):
            vals = [self.attrs[i][key] for i in by.get((name, a), [])]
            return sum(vals) / len(vals) if vals else 0.0

        def attr_sum(name, key):
            # a call that raised has no counts from ``after``
            return float(sum((self.attrs[i] or {}).get(key, 0)
                             for i in by.get((name, ALL), [])))

        out: dict[str, tuple[float, str]] = {}
        eval_names = ("training.evaluate", "training.validate",
                      "objective.dataset_energy")
        train_ids = by.get(("training.train", ALL), [])
        for a in ARCHS:
            out[f"tensor.backward_ms.{a}"] = (mean_ms("tensor.backward", a), "ms")
            out[f"tensor.adam_ms.{a}"] = (mean_ms("tensor.adam", a), "ms")
            out[f"tensor.graph_nodes.{a}"] = (attr_mean("tensor.backward", "nodes", a),
                                              "count")
            out[f"models.forward_ms.{a}"] = (mean_ms("models.forward", a, True), "ms")
            out[f"objective.energy_ms.{a}"] = (mean_ms("objective.energy", a), "ms")
            t_ids = [i for i in train_ids if arch[i] == a]
            t_total = sum(dur[i] for i in t_ids)
            e_total = sum(dur[i] for name in eval_names
                          for i in by.get((name, a), []) if train_of[i] >= 0)
            out[f"training.eval_share.{a}"] = (e_total / t_total if t_total else 0.0,
                                               "ratio")
        out["tensor.conv2d_ms"] = (mean_ms("tensor.conv2d"), "ms")
        out["tensor.max_pool2_ms"] = (mean_ms("tensor.max_pool2"), "ms")
        out["tensor.softmax_ce_ms"] = (mean_ms("tensor.softmax_ce"), "ms")
        out["models.build_ms"] = (mean_ms("models.build"), "ms")
        out["objective.dataset_energy_ms"] = (mean_ms("objective.dataset_energy"), "ms")
        out["training.eval_ms"] = (mean_ms("training.evaluate"), "ms")
        t_total = sum(dur[i] for i in train_ids)
        t_self = sum(dur[i] - child[i] for i in train_ids)
        out["training.self_share"] = (t_self / t_total if t_total else 0.0, "ratio")
        steps_in_train = sum(1 for i in by.get(("tensor.adam", ALL), [])
                             if train_of[i] >= 0)
        out["training.steps"] = (steps_in_train / len(train_ids) if train_ids else 0.0,
                                 "count")
        out["training.diverged"] = (attr_sum("training.train", "diverged"), "count")
        cells = [i for i in train_ids if self.parent[i] >= 0
                 and self.name[self.parent[i]] == "sweep.run"]
        out["sweep.cell_ms"] = (1000.0 * sum(dur[i] for i in cells) / len(cells)
                                if cells else 0.0, "ms")
        out["sweep.self_ms"] = (mean_ms("sweep.run", self_time=True), "ms")
        out["sweep.cells_failed"] = (attr_sum("sweep.run", "failed"), "count")
        out["records.save_ms"] = (mean_ms("records.save"), "ms")
        out["records.load_ms"] = (mean_ms("records.load"), "ms")
        out["stats.tukey_ms"] = (mean_ms("stats.tukey"), "ms")
        out["stats.anova_ms"] = (mean_ms("stats.anova"), "ms")
        out["stats.bootstrap_ms"] = (mean_ms("stats.bootstrap"), "ms")
        analyses = len(by.get(("analysis.analyze", ALL), []))
        stats_calls = sum(len(by.get((s, ALL), [])) for s in
                          ("stats.anova", "stats.tukey", "stats.bootstrap",
                           "stats.summary"))
        out["stats.calls"] = (stats_calls / analyses if analyses else 0.0, "count")
        out["analysis.analyze_ms"] = (mean_ms("analysis.analyze"), "ms")
        out["analysis.self_ms"] = (mean_ms("analysis.analyze", self_time=True), "ms")
        out["power.replay_ms"] = (mean_ms("power.replay"), "ms")
        out["power.integrate_ms"] = (mean_ms("power.integrate"), "ms")
        out["datasets.synth_ms"] = (mean_ms("datasets.synth"), "ms")
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as one compact JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        spans = [[self.name[i], round(self.start[i] - t0, 9),
                  round(self.end[i] - t0, 9), self.parent[i], self.attrs[i]]
                 for i in range(len(self.name))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start_s", "end_s", "parent", "attrs"],
                       "spans": spans}, fh, separators=(",", ":"))
