"""Command-line interface.

Subcommands: run (train once and persist a record), sweep (train a
regularization-weight grid), gradcheck (finite-difference verification
of the whole zoo; it takes no flags), analyze (statistics over a record
directory), and report (the zoo's parameter counts, or a saved sweep's
table).

Exit codes: 0 success, 1 validation or configuration error, 2 runtime
divergence or a failed numerical check, 3 I/O or parse failure.

run and sweep share one settings table: run takes every key, sweep
only the dataset, model and optimizer keys. A key a subcommand does
not take is an error, as a flag or in its config file. Settings
resolve in precedence order: built-in defaults, then the config file,
then explicit flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import analyze_records, dropped_counts, parameter_count_table
from .datasets import DatasetHandle, load_idx_dataset, synth_blobs
from .errors import NonFiniteError, ParseError, ValidationError
from .models import ModelSpec, build_model
from .records import load_records, record_filename, save_record
from .rng import make_generator
from .sweep import (DEFAULT_EPOCHS, DEFAULT_LAMBDAS, DEFAULT_SEEDS,
                    load_sweep, run_lambda_sweep, save_sweep)
from .tensor import grad_check
from .training import RunConfig, _batch_objective, train


def _int_pair(raw: str) -> tuple[int, int]:
    parts = [int(p) for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two integers")
    return tuple(parts)


# Every setting's type and default; a key that ModelSpec or RunConfig
# declares takes that class's default. Flags use the same names with
# dashes; the telemetry pair keeps its dotted form in config files.
_SETTINGS: dict[str, tuple[object, object]] = {
    "arch": (str, "mlp"), "hidden_dim": (int, 64),
    "glia_ratio": (float, ModelSpec.glia_ratio),
    "dense_dim": (int, ModelSpec.dense_dim),
    "conv_channels": (_int_pair, ModelSpec.conv_channels),
    "dataset": (str, "synth"), "dataset_name": (str, None),
    "data_dir": (str, None), "classes": (int, 4), "feature_dim": (int, 32),
    "per_class": (int, 250), "separation": (float, 1.0),
    "dataset_seed": (int, 7), "lr": (float, RunConfig.lr),
    "batch_size": (int, RunConfig.batch_size),
    "max_epochs": (int, RunConfig.max_epochs),
    "patience": (int, RunConfig.patience),
    "weight_decay": (float, RunConfig.weight_decay),
    "lambda": (float, RunConfig.lam), "seed": (int, RunConfig.seed),
    "val_fraction": (float, RunConfig.val_fraction),
    "records_dir": (str, "records"),
    "telemetry.command": (str, RunConfig.telemetry_command),
    "telemetry.hz": (float, RunConfig.telemetry_hz),
}

# The keys each subcommand takes: its flags and its config-file keys.
_RUN_KEYS = tuple(_SETTINGS)
_SWEEP_KEYS = ("arch", "hidden_dim", "glia_ratio", "dense_dim",
               "conv_channels", "dataset", "dataset_name", "data_dir",
               "classes", "feature_dim", "per_class", "separation",
               "dataset_seed", "lr", "batch_size", "weight_decay")


def parse_config(path, keys=_RUN_KEYS) -> dict[str, object]:
    """Read a flat ``key = value`` config file; # starts a comment.

    A key outside ``keys`` is a ValidationError that names it.
    """
    settings: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            scope = "run-only" if key in _SETTINGS else "unknown"
            raise ValidationError(f"{scope} config key {key!r} "
                                  f"(line {lineno})")
        try:
            settings[key] = _SETTINGS[key][0](value)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from None
    return settings


def _resolve_settings(args: argparse.Namespace, keys) -> dict[str, object]:
    settings = {key: _SETTINGS[key][1] for key in keys}
    if args.config:
        settings.update(parse_config(args.config, keys))
    for key in keys:
        value = getattr(args, key.replace(".", "_"))
        if value is not None:
            settings[key] = value
    return settings


def _make_dataset(s: dict[str, object]) -> DatasetHandle:
    # an unset name defaults to the dataset kind; an empty one goes on to
    # DatasetHandle, which refuses it
    name = s["dataset"] if s["dataset_name"] is None else s["dataset_name"]
    if s["dataset"] == "synth":
        return synth_blobs(s["classes"], s["feature_dim"], s["per_class"],
                           s["separation"], s["dataset_seed"], name=name)
    if s["dataset"] in ("mnist", "idx"):
        if not s["data_dir"]:
            raise ValidationError("data_dir is required for IDX datasets")
        return load_idx_dataset(s["data_dir"], name=name)
    raise ValidationError(f"unknown dataset {s['dataset']!r}; expected "
                          f"synth, mnist, or idx")


def _make_spec(s: dict[str, object], data: DatasetHandle) -> ModelSpec:
    glia = s["glia_ratio"]
    if s["arch"] == "bimodal" and glia is None:
        glia = 1.0
    return ModelSpec(s["arch"], data.input_dim, s["hidden_dim"], data.classes,
                     glia_ratio=glia, conv_channels=s["conv_channels"],
                     dense_dim=s["dense_dim"])


def _add_settings(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", help="key = value settings file")
    for key in keys:
        p.add_argument("--" + key.replace(".", "-").replace("_", "-"),
                       dest=key.replace(".", "_"), type=_SETTINGS[key][0])


def _save_record(record, directory) -> Path:
    """``save_record``, saying on stderr when it replaced an existing file."""
    replaced = (Path(directory) / record_filename(record)).exists()
    path = save_record(record, directory)
    if replaced:
        print(f"warning: replaced {path}", file=sys.stderr)
    return path


def cmd_run(args: argparse.Namespace) -> int:
    s = _resolve_settings(args, _RUN_KEYS)
    data = _make_dataset(s)
    spec = _make_spec(s, data)
    config = RunConfig(model=spec, lr=s["lr"], batch_size=s["batch_size"],
                       max_epochs=s["max_epochs"], patience=s["patience"],
                       weight_decay=s["weight_decay"], lam=s["lambda"],
                       seed=s["seed"], val_fraction=s["val_fraction"],
                       telemetry_command=s["telemetry.command"],
                       telemetry_hz=s["telemetry.hz"])
    _, record = train(config, data)
    path = _save_record(record, s["records_dir"])
    if record.status != "ok":
        print(f"run diverged after {record.epochs_run} epochs; record: {path}",
              file=sys.stderr)
        return 2
    acc = record.test_accuracy * 100
    epc = ("-" if record.energy_mj_per_correct is None
           else f"{record.energy_mj_per_correct:.3f}")
    print(f"{record.architecture} on {record.dataset}: accuracy {acc:.2f}%, "
          f"test loss {record.test_loss:.4f}, activation energy "
          f"{record.activation_energy:.4g}, energy/correct {epc} mJ, "
          f"{record.epochs_run} epochs")
    print(f"record: {path}")
    return 0


def _parse_list(flag: str, kind, raw: str) -> list:
    try:
        values = [kind(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag}: bad {kind.__name__} list {raw!r}: "
                              f"{exc}") from None
    if not values:
        raise ValidationError(f"{flag} must list at least one value, got {raw!r}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    s = _resolve_settings(args, _SWEEP_KEYS)
    data = _make_dataset(s)
    template = _make_spec(s, data)
    # only an unset flag takes the default; an empty one is refused
    lambdas = (DEFAULT_LAMBDAS if args.lambdas is None
               else _parse_list("--lambdas", float, args.lambdas))
    seeds = (DEFAULT_SEEDS if args.seeds is None
             else _parse_list("--seeds", int, args.seeds))
    report = run_lambda_sweep(
        data, template, lambdas, seeds, lr=s["lr"],
        batch_size=s["batch_size"], epochs=args.epochs,
        weight_decay=s["weight_decay"])
    # the cells are saved first: they outlive a baseline that diverged
    if args.records_dir_out:
        for record in report.cells:
            _save_record(record, args.records_dir_out)
        print(f"cell records: {args.records_dir_out}")
    if report.failed:
        named = ", ".join(f"lam={c.lam:g} seed={c.seed}" for c in report.failed)
        print(f"{len(report.failed)} cell(s) diverged and were excluded: "
              f"{named}", file=sys.stderr)
    if not any(c.lam == 0.0 for c in report.cells if c.status == "ok"):
        raise NonFiniteError("every lam = 0 baseline cell diverged; no "
                             "reference energy to compare against")
    print(report.table().to_text())
    if args.out:
        path = save_sweep(report, args.out)
        print(f"sweep report: {path}")
    return 0


# the worst relative error gradcheck accepts
GRADCHECK_THRESHOLD = 1e-4


def gradcheck_zoo() -> list[tuple[str, float, float]]:
    """Finite-difference check of every architecture at desk scale.

    Each architecture is built at input 16, hidden 12 and 4 classes and
    checked on a seeded batch of 4 at lam 0, 1e-3 and 1e-1.
    Returns (architecture, lam, max relative error) triples covering
    the full objective: cross-entropy plus lam times the energy term.
    """
    input_dim, hidden_dim, output_dim, batch = 16, 12, 4, 4
    gen = make_generator(7)
    x = gen.normal(size=(batch, input_dim))
    y = gen.integers(0, output_dim, size=batch)
    specs = [
        ModelSpec("bimodal", input_dim, hidden_dim, output_dim, glia_ratio=1.0),
        ModelSpec("physics", input_dim, hidden_dim, output_dim),
        ModelSpec("mlp", input_dim, hidden_dim, output_dim),
        ModelSpec("cnn", input_dim, hidden_dim, output_dim,
                  conv_channels=(4, 8), dense_dim=16),
    ]
    results = []
    for spec in specs:
        for lam in (0.0, 1e-3, 1e-1):
            model = build_model(spec, gen)
            err = grad_check(lambda: _batch_objective(model, x, y, lam),
                             model.parameters(), rng=gen)
            results.append((spec.arch, lam, err))
    return results


def cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = 0.0
    for arch, lam, err in gradcheck_zoo():
        ok = "ok" if err < GRADCHECK_THRESHOLD else "FAIL"
        print(f"{arch:8s} lambda={lam:<8g} max rel err {err:.3e}  {ok}")
        worst = max(worst, err)
    print(f"worst relative error {worst:.3e} (threshold {GRADCHECK_THRESHOLD:g})")
    return 0 if worst < GRADCHECK_THRESHOLD else 2


def cmd_analyze(args: argparse.Namespace) -> int:
    records, issues = load_records(args.records)
    for issue in issues:
        print(f"warning: skipped {issue}", file=sys.stderr)
    tables = analyze_records(records, response=args.response)
    failed, lacking = dropped_counts(records, args.response)
    if failed or lacking:
        print(f"warning: analysis dropped {failed + lacking} of {len(records)} "
              f"records: {failed} did not complete, {lacking} lack "
              f"{args.response!r}", file=sys.stderr)
    text = "\n\n".join(t.to_text() for t in tables)
    print(text)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for t in tables:
            stem = "".join(c if c.isalnum() else "_" for c in t.title).strip("_")
            (out / f"{stem}.csv").write_text(t.to_csv(), encoding="utf-8")
        (out / "summary.txt").write_text(text + "\n", encoding="utf-8")
        print(f"tables written to {out}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.kind == "params":
        print(parameter_count_table().to_text())
        return 0
    if not args.infile:
        raise ValidationError("report sweep needs --in FILE")
    print(load_sweep(args.infile).table().to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actreg",
        description="Energy-regularized classifier training and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one model and persist its record")
    _add_settings(p_run, _RUN_KEYS)
    p_run.set_defaults(func=cmd_run)

    # no abbreviations: run-only flags such as --seed, --lambda and
    # --records-dir are prefixes of --seeds, --lambdas and
    # --records-dir-out, so they must fail rather than set the grid
    p_sweep = sub.add_parser("sweep", help="train a lambda grid and summarize",
                             allow_abbrev=False)
    _add_settings(p_sweep, _SWEEP_KEYS)
    p_sweep.add_argument("--lambdas", default=None,
                         help="comma-separated grid, must include 0")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated seeds (default: the paper's ten)")
    p_sweep.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p_sweep.add_argument("--out", default=None, help="write the report JSON here")
    p_sweep.add_argument("--records-dir-out", default=None,
                         help="also save every cell's experiment record")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check of the model zoo")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_an = sub.add_parser("analyze", help="statistics over a record directory")
    p_an.add_argument("--records", required=True)
    p_an.add_argument("--out-dir", default=None,
                      help="write CSV tables and a text summary here")
    p_an.add_argument("--response", default="test_accuracy")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="render summary tables")
    p_rep.add_argument("kind", choices=("params", "sweep"))
    p_rep.add_argument("--in", dest="infile", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
