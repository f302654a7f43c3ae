"""Analysis over experiment records: ANOVA, Tukey, bootstrap, summaries.

The dispatch rule follows the factors actually present in the records:
two crossed factors with enough levels get a two-way ANOVA, a single
multi-level factor gets a one-way ANOVA, and anything narrower is
refused with an explanation naming what is missing. Output is a list of
small table objects that render to aligned text or CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .records import ExperimentRecord
from .stats import (bootstrap_ci, coefficient_of_variation, one_way_anova,
                    rank_variance, rank_within, tukey_hsd, two_way_anova_type2)

RESPONSES = ("test_accuracy", "test_loss", "activation_energy",
             "energy_mj_total", "energy_mj_per_correct")


@dataclass
class Table:
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def to_text(self) -> str:
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [max([len(h)] + [len(r[i]) for r in cells])
                  for i, h in enumerate(self.headers)]
        lines = [self.title,
                 "  ".join(h.ljust(w) for h, w in zip(self.headers, widths)),
                 "  ".join("-" * w for w in widths)]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(["" if c is None else c for c in row])
        return buf.getvalue()


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def dropped_counts(records: list[ExperimentRecord], response: str) -> tuple[int, int]:
    """Records an analysis of ``response`` leaves out, by cause.

    Returns (did not complete, completed but lack ``response``).
    """
    failed = sum(r.status != "ok" for r in records)
    lacking = sum(r.status == "ok" and getattr(r, response) is None for r in records)
    return failed, lacking


def _usable(records: list[ExperimentRecord], response: str) -> list[ExperimentRecord]:
    if response not in RESPONSES:
        raise ValidationError(f"unknown response {response!r}, expected one "
                              f"of {RESPONSES}")
    out = [r for r in records
           if r.status == "ok" and getattr(r, response) is not None]
    if not out:
        if not records:
            raise ValidationError("no records were found")
        failed, _ = dropped_counts(records, response)
        raise ValidationError(f"no completed records carry {response!r}: {failed} of "
                              f"{len(records)} did not complete, the rest lack it")
    return out


def _anova_table(sources, title: str) -> Table:
    t = Table(title, ["source", "F", "p", "df1", "df2", "partial_eta2",
                      "degenerate"])
    for s in sources:
        t.rows.append([s.source, s.f, s.p, s.df1, s.df2, s.partial_eta2,
                       s.degenerate])
    return t


def _tukey_table(pairs) -> Table:
    t = Table("tukey hsd (architecture pairs)",
              ["group_a", "group_b", "mean_diff", "q", "p_adj", "reject"])
    for p in pairs:
        t.rows.append([p.group_a, p.group_b, p.mean_diff, p.q, p.p_adj, p.reject])
    return t


def analyze_records(records: list[ExperimentRecord],
                    response: str = "test_accuracy") -> list[Table]:
    """Run the dispatch rule over a record set and return result tables.

    Raises ValidationError when the records cannot support any test,
    naming the factor that lacks levels.
    """
    usable = _usable(records, response)
    rows = [(r.architecture, r.dataset, getattr(r, response)) for r in usable]
    # One pass groups the responses by architecture, by dataset and by
    # cell, each list in record order.
    by_arch: dict[str, list[float]] = {}
    by_dataset: dict[str, list[float]] = {}
    by_cell: dict[tuple[str, str], list[float]] = {}
    for arch, dataset, value in rows:
        by_arch.setdefault(arch, []).append(value)
        by_dataset.setdefault(dataset, []).append(value)
        by_cell.setdefault((arch, dataset), []).append(value)
    archs = sorted(by_arch)
    datasets = sorted(by_dataset)
    arch_groups = {a: by_arch[a] for a in archs}
    tables: list[Table] = []

    if len(archs) >= 2 and len(datasets) >= 2:
        sources = two_way_anova_type2(rows, factor_names=("architecture",
                                                          "dataset"))
        tables.append(_anova_table(sources,
                                   f"two-way anova ({response})"))
        tables.append(_tukey_table(tukey_hsd(arch_groups)))
    elif len(archs) >= 2:
        tables.append(_anova_table([one_way_anova(arch_groups)],
                                   f"one-way anova by architecture ({response})"))
        tables.append(_tukey_table(tukey_hsd(arch_groups)))
    elif len(datasets) >= 2:
        groups = {d: by_dataset[d] for d in datasets}
        tables.append(_anova_table([one_way_anova(groups)],
                                   f"one-way anova by dataset ({response})"))
    else:
        raise ValidationError(
            f"records cover {len(archs)} architecture and {len(datasets)} "
            f"dataset; comparisons need at least two levels of one factor")

    summary = Table(f"per-architecture summary ({response})",
                    ["architecture", "n", "mean", "ci_lower", "ci_upper",
                     "cv_pct", "rank_variance"])
    ranks_by_arch: dict[str, list[float]] = {a: [] for a in archs}
    if len(datasets) >= 2 and len(archs) >= 2:
        # Rank architectures within each dataset by mean response,
        # rank 1 best, then measure cross-dataset rank consistency.
        for d in datasets:
            means = [float(np.mean(by_cell[a, d])) for a in archs]
            for a, rank in zip(archs, rank_within(means)):
                ranks_by_arch[a].append(float(rank))
    # bootstrap_ci is called by name once per architecture, the call site
    # bench/tracing.py wraps; equal sizes share one cached draw
    for a in archs:
        vals = by_arch[a]
        ci = bootstrap_ci(vals, rng=0) if len(vals) >= 2 else None
        cv = coefficient_of_variation(vals) if len(vals) >= 2 else None
        rv = rank_variance(ranks_by_arch[a]) if ranks_by_arch[a] else None
        summary.rows.append([a, len(vals), float(np.mean(vals)),
                             None if ci is None else ci.lower,
                             None if ci is None else ci.upper,
                             cv, rv])
    if len(archs) >= 2:
        tables.append(summary)
    return tables


def parameter_count_table() -> Table:
    """Parameter counts for the zoo at hidden width 1024, the published
    reference size, across the three reference domains."""
    from .models import ModelSpec, param_count_for

    hidden_dim = 1024
    domains = [("vision_784", 784, 10), ("text_5000", 5000, 20),
               ("audio_700", 700, 10)]
    t = Table(f"parameter counts (hidden_dim={hidden_dim})",
              ["architecture"] + [d[0] for d in domains])
    rows = {
        "bimodal (glia 1.0)": lambda i, o: ModelSpec("bimodal", i, hidden_dim, o,
                                                     glia_ratio=1.0),
        "physics": lambda i, o: ModelSpec("physics", i, hidden_dim, o),
        "mlp": lambda i, o: ModelSpec("mlp", i, hidden_dim, o),
        "cnn (8,16,dense 128)": lambda i, o: (
            ModelSpec("cnn", i, hidden_dim, o) if i == 784 else None),
    }
    for label, make in rows.items():
        row: list = [label]
        for _, i, o in domains:
            spec = make(i, o)
            row.append(None if spec is None else param_count_for(spec))
        t.rows.append(row)
    return t
