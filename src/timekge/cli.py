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
from dataclasses import dataclass
from pathlib import Path

from .datasets import Dataset, prepare_splits
from .errors import (
    CheckpointCorruptError,
    CheckpointShapeError,
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
from .scoring import Model
from .time_encoding import decompose_date
from .training import (
    TrainConfig,
    Trainer,
    load_checkpoint,
    save_checkpoint,
)

ENCODE_TIME_HEADER = ("date,dow,dom,wom,dos,wos,mos,doy,woy,moy,soy,"
                      "g1,g10,g100,g1000")


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
        if self.checkpoint_policy not in ("best", "every", "last"):
            raise ConfigError(
                f"unknown checkpoint policy {self.checkpoint_policy!r} "
                "(expected best, every or last)")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint interval must be >= 1")


def load_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config-file values, then non-None flag overrides."""
    values = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
        except json.JSONDecodeError as exc:
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

    dataset = Dataset.from_dir(config.dataset)
    trainer = Trainer(dataset, config.train_config())

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

    hashes = dataset.vocab.hashes()
    # hyperparameters only: checkpoint bytes must not depend on run paths
    config_dict = dataclasses.asdict(config.train_config())
    best_mrr = -1.0
    history_path = out / "history.jsonl"

    def checkpoint(name: str, epoch: int) -> None:
        save_checkpoint(
            out / name, trainer.model.params, vocab_hashes=hashes,
            epoch=epoch, seed=config.seed,
            time_sampling_rate=config.time_sampling_rate,
            num_timestamps=trainer.num_timestamps, config=config_dict)

    with open(history_path, "w", encoding="utf-8") as history:
        def on_epoch(record):
            nonlocal best_mrr
            history.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            history.flush()
            if config.checkpoint_policy == "best" and record.val is not None \
                    and record.val["mrr"] > best_mrr:
                best_mrr = record.val["mrr"]
                checkpoint("checkpoint-best", record.epoch)
            elif config.checkpoint_policy == "every" \
                    and (record.epoch + 1) % config.checkpoint_every == 0:
                checkpoint(f"checkpoint-epoch-{record.epoch}", record.epoch)

        trainer.run(eval_interval=config.eval_interval, on_epoch=on_epoch)

    last_epoch = config.epochs - 1
    if config.checkpoint_policy == "last" or not any(out.glob("checkpoint-*")):
        checkpoint("checkpoint-last", last_epoch)

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
    splits, _ = prepare_splits(dataset, int(manifest.get("time_sampling_rate", 1)))
    flt = build_filter(list(splits.values()))
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

    train = sub.add_parser("train", help="train a model and evaluate on test")
    train.add_argument("--config", help="JSON run configuration")
    train.add_argument("--dataset", help="dataset directory")
    train.add_argument("--out", help="output directory")
    train.add_argument("--variant", choices=["lowfer", "t", "tnt", "cfb", "ftp"])
    train.add_argument("--encoder", choices=["ste", "cte"])
    train.add_argument("--dim-entity", type=int, dest="dim_entity")
    train.add_argument("--dim-relation", type=int, dest="dim_relation")
    train.add_argument("--dim-time", type=int, dest="dim_time")
    train.add_argument("--rank", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--decay", type=float)
    train.add_argument("--batch-size", type=int, dest="batch_size")
    train.add_argument("--label-smoothing", type=float, dest="label_smoothing")
    train.add_argument("--dropout-input", type=float, dest="dropout_input")
    train.add_argument("--dropout-hidden", type=float, dest="dropout_hidden")
    train.add_argument("--epochs", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--time-rate", type=int, dest="time_sampling_rate")
    train.add_argument("--eval-interval", type=int, dest="eval_interval")
    train.add_argument("--checkpoint-policy", choices=["best", "every", "last"],
                       dest="checkpoint_policy")
    train.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
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
    except (ConfigError, CheckpointCorruptError, CheckpointShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointVocabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TimekgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
