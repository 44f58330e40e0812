"""Command-line entry point.

Subcommands: ``train``, ``evaluate``, ``stats``, ``encode-time``,
``heatmap``. Run configuration comes from an optional JSON file
(mirroring :class:`RunConfig` field names) with flag overrides on top;
the effective configuration is echoed into the output directory so a
run can be reproduced from its artifacts alone.

Exit codes: 0 success, 1 configuration error, 2 data/dataset error,
3 numeric failure (non-finite loss or evaluation logits).
"""

import argparse
import dataclasses
import datetime as dt
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .checkpoint import load_checkpoint
from .datasets import Dataset, prepare_splits
from .errors import (
    CheckpointVocabError,
    ConfigError,
    DataError,
    NumericError,
    TimekgeError,
)
from .evaluation import (
    build_filter,
    evaluate,
    export_time_concentration,
    export_time_relation_heatmap,
)
from .scoring import Model, Variant
from .time_encoding import ENCODERS, decompose_date
from .training import (
    CHECKPOINT_POLICIES,
    TrainConfig,
    Trainer,
    check_checkpoint_policy,
)

ENCODE_TIME_HEADER = ("date,dow,dom,wom,dos,wos,mos,doy,woy,moy,soy,"
                      "g1,g10,g100,g1000")

# train flags: the one not named after its RunConfig field, and those with fixed values
_FLAG_NAMES = {"time_sampling_rate": "--time-rate"}
_FLAG_CHOICES = {"variant": [v.value for v in Variant], "encoder": list(ENCODERS),
                 "checkpoint_policy": CHECKPOINT_POLICIES}


@dataclass
class RunConfig(TrainConfig):
    """Everything a training run needs; JSON config files mirror these names."""

    dataset: str = ""
    out: str = ""
    eval_interval: int = 5
    checkpoint_policy: str = "best"
    checkpoint_every: int = 10

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(TrainConfig)})

    def validate(self) -> None:
        super().validate()
        if not self.dataset:
            raise ConfigError("a dataset directory is required")
        if not self.out:
            raise ConfigError("an output directory is required")
        if self.eval_interval < 1:
            raise ConfigError("eval interval must be >= 1")
        check_checkpoint_policy(self.checkpoint_policy, self.checkpoint_every)


def load_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config-file values, then non-None flag overrides."""
    values = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
        # ValueError covers bad JSON and bad UTF-8; deep nesting raises RecursionError
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {config_path} must be a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    config = load_run_config(args.config, overrides)
    config.validate()
    out = Path(config.out)
    # one run per directory: an earlier run's checkpoints would sit beside this one's
    if out.is_dir() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty")

    dataset = Dataset.from_dir(config.dataset)
    trainer = Trainer(dataset, config.train_config())

    out.mkdir(parents=True, exist_ok=True)
    # a refused run writes no file, so the policy is checked before the first
    trainer.check_policy(config.checkpoint_policy, config.checkpoint_every)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

    trainer.run(config.eval_interval, out, config.checkpoint_policy, config.checkpoint_every)

    metrics = trainer.evaluate_split("test", mode="filtered")
    payload = {"split": "test", "mode": "filtered", **metrics.to_dict()}
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_json(payload)
    return 0


def cmd_evaluate(args) -> int:
    dataset = Dataset.from_dir(args.dataset)
    params, manifest = load_checkpoint(args.checkpoint, dataset)
    splits, _ = prepare_splits(dataset, manifest["time_sampling_rate"])
    # raw ranking reads no filter
    flt = build_filter(list(splits.values())) if args.mode == "filtered" else None
    metrics = evaluate(Model(params), splits[args.split], flt, mode=args.mode)
    _print_json({"split": args.split, "mode": args.mode, **metrics.to_dict()})
    return 0


def cmd_stats(args) -> int:
    dataset = Dataset.from_dir(args.dataset)
    _print_json(dataset.stats())
    return 0


def _date_range(start: dt.date, end: dt.date):
    day = start
    while day <= end:
        yield day
        day += dt.timedelta(days=1)


def cmd_encode_time(args) -> int:
    if args.dataset:
        dates = Dataset.from_dir(args.dataset).vocab.dates
    elif args.date:
        dates = [dt.date.fromisoformat(args.date)]
    elif args.start and args.end:
        start = dt.date.fromisoformat(args.start)
        end = dt.date.fromisoformat(args.end)
        if end < start:
            raise ConfigError("--end must not precede --start")
        dates = list(_date_range(start, end))
    else:
        raise ConfigError("encode-time needs --dataset, --date, or --start/--end")
    print(ENCODE_TIME_HEADER)
    for date in dates:
        c = decompose_date(date)
        print(",".join([date.isoformat(), *map(str, c)]))
    return 0


def cmd_heatmap(args) -> int:
    if args.time_rate < 1:
        raise ConfigError("time sampling rate must be >= 1")
    dataset = Dataset.from_dir(args.dataset)
    import numpy as np

    quads = np.concatenate([dataset.train, dataset.valid, dataset.test], axis=0)
    export_time_relation_heatmap(quads, dataset.vocab, args.out, rate=args.time_rate)
    if args.concentration:
        export_time_concentration(quads, dataset.vocab, args.concentration,
                                  rate=args.time_rate)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timekge",
        description="Temporal knowledge-graph completion with low-rank fusion")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and evaluate on test",
                           description="Each flag overrides the RunConfig field of its "
                                       "name (--time-rate sets time_sampling_rate).")
    train.add_argument("--config", help="JSON run configuration")
    for f in dataclasses.fields(RunConfig):
        kind = (typing.get_args(f.type) or (f.type,))[0]  # int for int | None
        train.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                           dest=f.name, type=None if kind is str else kind,
                           choices=_FLAG_CHOICES.get(f.name))
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", choices=["train", "valid", "test"], default="test")
    ev.add_argument("--mode", choices=["filtered", "raw"], default="filtered")
    ev.set_defaults(func=cmd_evaluate)

    stats = sub.add_parser("stats", help="print dataset statistics as JSON")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=cmd_stats)

    enc = sub.add_parser("encode-time", help="print cycle decompositions as CSV")
    enc.add_argument("--dataset")
    enc.add_argument("--date")
    enc.add_argument("--start")
    enc.add_argument("--end")
    enc.set_defaults(func=cmd_encode_time)

    heat = sub.add_parser("heatmap", help="export relation/time fact counts")
    heat.add_argument("--dataset", required=True)
    heat.add_argument("--out", required=True)
    heat.add_argument("--concentration", help="also export per-timestamp totals")
    heat.add_argument("--time-rate", type=int, default=1, dest="time_rate")
    heat.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, CheckpointVocabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TimekgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
