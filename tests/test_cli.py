"""End-to-end runs of every subcommand via main()."""

import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from timekge import cli, errors
from timekge.cli import main
from timekge.datasets import synthetic_dataset_dir
from timekge.scoring import param_layout

SYNTH = str(synthetic_dataset_dir())

FAST_TRAIN = ["--dim-entity", "8", "--rank", "2", "--epochs", "2",
              "--batch-size", "64", "--eval-interval", "2"]


def run_train(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["train", "--dataset", SYNTH, "--out", str(out),
                 "--variant", "tnt", "--seed", "3", *FAST_TRAIN, *extra])
    return code, out


def checkpoint_names(out):
    return sorted(p.name for p in out.iterdir() if p.name.startswith("checkpoint"))


class TestTrain:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] == "test" and payload["mode"] == "filtered"
        assert (out / "config.json").is_file()
        assert (out / "metrics.json").is_file()
        history = [json.loads(line)
                   for line in (out / "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in history] == [0, 1]
        assert (out / "checkpoint-best" / "manifest.json").is_file()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o"), *FAST_TRAIN])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--variant", "ftp"], "ftp requires rank 1, got 32"),
        (["--variant", "t", "--dim-relation", "8", "--dim-time", "4"],
         "modulation needs dim_time == dim_relation, got 4 != 8"),
    ])
    def test_model_rule_refused_before_the_dataset_is_read(self, tmp_path, capsys, flags,
                                                           message):
        out = tmp_path / "o"
        code = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flags_mirror_run_config_fields(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {(tuple(a.option_strings), a.dest, a.type,
                  None if a.choices is None else tuple(a.choices), a.default)
                 for a in sub.choices["train"]._actions if a.dest != "help"}
        assert flags == {
            (("--config",), "config", None, None, None),
            (("--dataset",), "dataset", None, None, None),
            (("--out",), "out", None, None, None),
            (("--variant",), "variant", None, ("lowfer", "t", "tnt", "cfb", "ftp"), None),
            (("--encoder",), "encoder", None, ("ste", "cte"), None),
            (("--dim-entity",), "dim_entity", int, None, None),
            (("--dim-relation",), "dim_relation", int, None, None),
            (("--dim-time",), "dim_time", int, None, None),
            (("--rank",), "rank", int, None, None),
            (("--lr",), "lr", float, None, None),
            (("--decay",), "decay", float, None, None),
            (("--batch-size",), "batch_size", int, None, None),
            (("--label-smoothing",), "label_smoothing", float, None, None),
            (("--dropout-input",), "dropout_input", float, None, None),
            (("--dropout-hidden",), "dropout_hidden", float, None, None),
            (("--epochs",), "epochs", int, None, None),
            (("--seed",), "seed", int, None, None),
            (("--time-rate",), "time_sampling_rate", int, None, None),
            (("--eval-interval",), "eval_interval", int, None, None),
            (("--checkpoint-policy",), "checkpoint_policy", None, ("best", "every", "last"),
             None),
            (("--checkpoint-every",), "checkpoint_every", int, None, None),
        }

    def test_bad_variant_in_config_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": SYNTH, "out": str(tmp_path / "o"),
                                   "variant": "noexist"}))
        assert main(["train", "--config", str(cfg)]) == 1

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": SYNTH, "out": str(tmp_path / "o"),
                                   "learning_rate": 0.1}))
        assert main(["train", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff{}"], ids=["nested", "not-utf8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("rank", "32"), ("epochs", 2.5), ("dim_relation", True), ("lr", None),
        ("variant", 3), ("eval_interval", "5")])
    def test_config_value_of_wrong_type_exits_1(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": SYNTH, "out": str(tmp_path / "o"),
                                   key: value}))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--dim-relation", "0"), ("--dim-time", "0"), ("--lr", "-0.01"),
        ("--lr", "nan"), ("--lr", "inf"), ("--decay", "-0.5")])
    def test_out_of_range_value_exits_1(self, tmp_path, capsys, flag, value):
        code = main(["train", "--dataset", SYNTH, "--out", str(tmp_path / "o"),
                     *FAST_TRAIN, flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_overflowing_lr_schedule_exits_1(self, tmp_path, capsys):
        # decay ** 2, the third epoch's factor, overflows the float range
        code = main(["train", "--dataset", SYNTH, "--out", str(tmp_path / "o"), *FAST_TRAIN,
                     "--decay", "1e200", "--lr", "1e-300", "--epochs", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_int_for_float_and_null_dims_are_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": SYNTH, "out": str(tmp_path / "o"),
                                   "lr": 0, "decay": 1, "dim_relation": None,
                                   "dim_entity": 8, "rank": 2, "epochs": 1,
                                   "batch_size": 64, "eval_interval": 1}))
        assert main(["train", "--config", str(cfg)]) == 0

    def test_numeric_divergence_exits_3(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code, _ = run_train(tmp_path, "--variant", "ftp", "--rank", "1",
                                "--lr", "1e150")
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": SYNTH, "out": str(tmp_path / "a"), "variant": "t",
            "dim_entity": 8, "rank": 2, "epochs": 1, "batch_size": 64,
            "eval_interval": 1}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "b"),
                     "--variant", "tnt"])
        assert code == 0
        effective = json.loads((tmp_path / "b" / "config.json").read_text())
        assert effective["variant"] == "tnt"
        assert effective["out"] == str(tmp_path / "b")
        assert effective["dim_entity"] == 8

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        _, first = run_train(tmp_path / "one")
        _, second = run_train(tmp_path / "two")
        assert (first / "metrics.json").read_bytes() == \
            (second / "metrics.json").read_bytes()
        for name in ("entity.bin", "relation.bin", "manifest.json"):
            assert (first / "checkpoint-best" / name).read_bytes() == \
                (second / "checkpoint-best" / name).read_bytes()
        strip = lambda p: [
            {k: v for k, v in json.loads(line).items() if k != "seconds"}
            for line in p.read_text().splitlines()]
        assert strip(first / "history.jsonl") == strip(second / "history.jsonl")

    def test_earlier_run_checkpoints_do_not_replace_this_runs(self, tmp_path, capsys):
        every = ["--checkpoint-policy", "every", "--checkpoint-every", "2"]
        code, out = run_train(tmp_path, *every, "--epochs", "3")
        assert code == 0 and (out / "checkpoint-epoch-1").is_dir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        # a second run into the directory is refused before anything is written
        code, out = run_train(tmp_path, *every, "--epochs", "1")
        assert code == 1
        assert capsys.readouterr().err == f"error: output directory {out} is not empty\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_non_empty_out_refused_before_the_dataset_is_read(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        code = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: output directory {out} is not empty\n"
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_empty_out_directory_is_accepted(self, tmp_path):
        (tmp_path / "run").mkdir()
        code, out = run_train(tmp_path, "--epochs", "1")
        assert code == 0 and (out / "checkpoint-best").is_dir()

    def test_best_checkpoint_holds_the_first_best_epoch(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "--seed", "0", "--epochs", "4", "--eval-interval", "1")
        assert code == 0
        history = [json.loads(line)
                   for line in (out / "history.jsonl").read_text().splitlines()]
        mrrs = [h["val"]["mrr"] for h in history]
        best = mrrs.index(max(mrrs))
        # neither the first nor the last evaluation, so both would be caught
        assert 0 < best < len(history) - 1
        manifest = json.loads((out / "checkpoint-best" / "manifest.json").read_text())
        assert manifest["epoch"] == best
        assert checkpoint_names(out) == ["checkpoint-best"]
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH, "--split", "valid"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"split": "valid", "mode": "filtered", **history[best]["val"]}

    @pytest.mark.parametrize("every", [2, 3])
    def test_every_policy_saves_each_nth_epoch(self, tmp_path, every):
        code, out = run_train(tmp_path, "--epochs", "4", "--checkpoint-policy", "every",
                              "--checkpoint-every", str(every))
        assert code == 0
        epochs = [e for e in range(4) if (e + 1) % every == 0]
        assert checkpoint_names(out) == [f"checkpoint-epoch-{e}" for e in epochs]
        for e in epochs:
            manifest = json.loads((out / f"checkpoint-epoch-{e}" / "manifest.json").read_text())
            assert manifest["epoch"] == e

    def test_last_policy_saves_only_the_last_epoch(self, tmp_path):
        code, out = run_train(tmp_path, "--epochs", "4", "--checkpoint-policy", "last")
        assert code == 0
        assert checkpoint_names(out) == ["checkpoint-last"]
        assert json.loads((out / "checkpoint-last" / "manifest.json").read_text())["epoch"] == 3

    def test_best_policy_on_empty_valid_split_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        synth = Path(SYNTH)
        (data / "train.txt").write_text(
            (synth / "train.txt").read_text() + (synth / "test.txt").read_text())
        (data / "valid.txt").write_text("")
        (data / "test.txt").write_text((synth / "test.txt").read_text())
        argv = ["train", "--dataset", str(data), "--variant", "tnt", *FAST_TRAIN,
                "--epochs", "6", "--eval-interval", "1"]
        assert main([*argv, "--out", str(tmp_path / "best")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "valid split" in err
        assert checkpoint_names(tmp_path / "best") == []
        assert not (tmp_path / "best" / "history.jsonl").exists()
        # only ``best`` reads the valid split
        assert main([*argv, "--out", str(tmp_path / "last"), "--checkpoint-policy", "last"]) == 0

    @pytest.mark.parametrize("reason, code", [
        ("empty valid split", 1), ("checkpoint interval", 1), ("missing dataset", 2)])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, reason, code):
        data = tmp_path / "data"
        data.mkdir()
        synth = Path(SYNTH)
        (data / "train.txt").write_text(
            (synth / "train.txt").read_text() + (synth / "valid.txt").read_text())
        (data / "valid.txt").write_text("")
        (data / "test.txt").write_text((synth / "test.txt").read_text())
        extra = {"empty valid split": [],
                 "checkpoint interval": ["--checkpoint-every", "0"],
                 "missing dataset": ["--dataset", str(tmp_path / "nope")]}[reason]
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(data), "--out", str(out), "--variant", "tnt",
                     *FAST_TRAIN, "--eval-interval", "1", *extra]) == code
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() or not any(out.iterdir())


class TestEvaluate:
    def test_round_trip_checkpoint(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH, "--split", "test"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "filtered"
        assert 0.0 <= payload["mrr"] <= 1.0
        assert payload["num_queries"] == 40  # 20 test facts, both directions

    def test_raw_mrr_not_above_filtered(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        capsys.readouterr()
        results = {}
        for mode in ("filtered", "raw"):
            assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                         "--dataset", SYNTH, "--mode", mode]) == 0
            results[mode] = json.loads(capsys.readouterr().out)
        assert results["raw"]["mrr"] <= results["filtered"]["mrr"]

    def test_raw_mode_builds_no_filter(self, tmp_path, capsys, monkeypatch):
        code, out = run_train(tmp_path)
        capsys.readouterr()

        def refuse(splits):
            raise AssertionError("raw ranking built the filter index")

        monkeypatch.setattr("timekge.cli.build_filter", refuse)
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH, "--split", "test", "--mode", "raw"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "raw" and payload["num_queries"] == 40
        assert 0.0 < payload["mrr"] <= 1.0

    def test_wrong_dataset_exits_2(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        for name in ("train", "valid", "test"):
            (other / f"{name}.txt").write_text("A\tp\tB\t2014-01-01\n")
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", str(other)]) == 2

    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        (out / "checkpoint-best" / "manifest.json").write_text("{broken")
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH]) == 1


    @pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff{}"], ids=["nested", "not-utf8"])
    def test_unreadable_manifest_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        assert main(["evaluate", "--checkpoint", str(tmp_path), "--dataset", SYNTH]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("dims", None), ("tensors", ["entity"]), ("num_entities", "absent"),
        ("rank", "2"), ("dims.time", 1.5), ("tensors.entity", [40, "8"])])
    def test_manifest_field_of_wrong_type_exits_1(self, tmp_path, capsys, field, value):
        code, out = run_train(tmp_path)
        path = out / "checkpoint-best" / "manifest.json"
        manifest = json.loads(path.read_text())
        *parents, key = field.split(".")
        table = manifest
        for name in parents:
            table = table[name]
        if value == "absent":
            del table[key]
        else:
            table[key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("num_timestamps", 3), ("time_sampling_rate", 0), ("num_entities", 37),
        ("num_relations", 5), ("num_relations", 7)])
    def test_time_field_disagreeing_with_dataset_exits_1(self, tmp_path, capsys,
                                                          field, value):
        code, out = run_train(tmp_path)
        ckpt = out / "checkpoint-best"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest[field] = value
        # tables that match the manifest, so only the dataset disagrees
        resized = {"num_timestamps": {"time": value}, "num_entities": {"entity": value},
                   "num_relations": {"relation": 2 * value, "relation_static": 2 * value}}
        for name, rows in resized.get(field, {}).items():
            shape = manifest["tensors"][name]
            table = np.fromfile(ckpt / f"{name}.bin", dtype="<f8").reshape(shape)
            np.resize(table, (rows, shape[1])).tofile(ckpt / f"{name}.bin")
            shape[0] = rows
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", SYNTH]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err and "Traceback" not in err

    def test_manifest_without_optional_fields_loads(self, tmp_path, capsys):
        # only a lowfer checkpoint can do without an encoder
        code, out = run_train(tmp_path, "--variant", "lowfer")
        path = out / "checkpoint-best" / "manifest.json"
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path.parent), "--dataset", SYNTH]) == 0
        full = capsys.readouterr().out
        manifest = json.loads(path.read_text())
        for field in ("encoder", "num_timestamps", "time_sampling_rate"):
            del manifest[field]
        path.write_text(json.dumps(manifest))
        assert main(["evaluate", "--checkpoint", str(path.parent), "--dataset", SYNTH]) == 0
        assert capsys.readouterr().out == full

    def test_temporal_manifest_without_encoder_exits_1(self, tmp_path, capsys):
        # an encoder can be omitted for lowfer only
        code, out = run_train(tmp_path)
        path = out / "checkpoint-best" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["variant"] == "tnt"
        del manifest["encoder"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path.parent), "--dataset", SYNTH]) == 1
        err = capsys.readouterr().err
        assert err == ("error: manifest field 'encoder' is missing or null, which variant "
                       "'tnt' needs\n")

    def test_oversized_manifest_exits_1(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        path = out / "checkpoint-best" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["dims"]["entity"] = 10 ** 9
        layout = param_layout(manifest["variant"], manifest["num_entities"],
                              manifest["num_relations"], manifest["rank"], 10 ** 9,
                              manifest["dims"]["relation"], manifest["dims"]["time"],
                              manifest["encoder"], manifest["num_timestamps"])
        manifest["tensors"] = {name: list(shape) for name, shape in layout.items()}
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path.parent), "--dataset", SYNTH]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: entity.bin: expected") and err.count("\n") == 1

    def test_non_finite_logits_exit_3(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        # finite, so the checkpoint loads, but the logits overflow
        entity = out / "checkpoint-best" / "entity.bin"
        np.full(entity.stat().st_size // 8, 1e200, dtype="<f8").tofile(entity)
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                         "--dataset", SYNTH])
        assert code == 3
        assert "non-finite logits" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_1(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        entity = out / "checkpoint-best" / "entity.bin"
        values = np.fromfile(entity, dtype="<f8")
        values[0] = np.nan
        values.tofile(entity)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint-best"),
                     "--dataset", SYNTH]) == 1
        assert "entity" in capsys.readouterr().err


class TestStats:
    def test_synthetic_stats(self, capsys):
        assert main(["stats", "--dataset", SYNTH]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_entities"] == 40
        assert payload["num_relations"] == 6
        assert payload["num_timestamps"] == 20

    def test_missing_dir_exits_2(self, tmp_path):
        assert main(["stats", "--dataset", str(tmp_path / "void")]) == 2

    def test_file_not_utf8_exits_2(self, tmp_path, capsys):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.txt").write_bytes((Path(SYNTH) / f"{name}.txt").read_bytes())
        with open(tmp_path / "valid.txt", "ab") as fh:  # after its 20 lines
            fh.write(b"E00\tR0\tE\xff01\t2014-01-02\n")
        assert main(["stats", "--dataset", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'valid.txt'}:21: not UTF-8")


class TestEncodeTime:
    def test_single_date(self, capsys):
        assert main(["encode-time", "--date", "2014-01-01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("date,dow,dom,wom,dos,wos,mos,doy,woy,moy,soy,"
                            "g1,g10,g100,g1000")
        fields = lines[1].split(",")
        assert fields[0] == "2014-01-01"
        assert fields[7] == "0"   # day of year
        assert fields[1] == "2"   # Wednesday

    def test_full_year_row_counts(self, capsys):
        assert main(["encode-time", "--start", "2014-01-01",
                     "--end", "2014-12-31"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 366  # header + 365

    def test_leap_year_row_counts(self, capsys):
        assert main(["encode-time", "--start", "2012-01-01",
                     "--end", "2012-12-31"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 367  # header + 366

    def test_dataset_dates(self, capsys):
        assert main(["encode-time", "--dataset", SYNTH]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 21

    def test_no_selection_exits_1(self, capsys):
        assert main(["encode-time"]) == 1


class TestHeatmap:
    def test_export_row_sums(self, tmp_path, capsys):
        out = tmp_path / "hm.csv"
        assert main(["heatmap", "--dataset", SYNTH, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7  # header + 6 relations
        total = sum(int(v) for row in rows[1:] for v in row[1:])
        assert total == 200

    def test_rate_aggregates_columns(self, tmp_path):
        fine = tmp_path / "fine.csv"
        coarse = tmp_path / "coarse.csv"
        main(["heatmap", "--dataset", SYNTH, "--out", str(fine)])
        main(["heatmap", "--dataset", SYNTH, "--out", str(coarse),
              "--time-rate", "4"])
        load = lambda p: np.array([[int(v) for v in row[1:]]
                                   for row in list(csv.reader(open(p)))[1:]])
        np.testing.assert_array_equal(load(coarse),
                                      load(fine).reshape(6, 5, 4).sum(axis=2))

    def test_concentration_totals(self, tmp_path):
        out = tmp_path / "hm.csv"
        conc = tmp_path / "conc.csv"
        assert main(["heatmap", "--dataset", SYNTH, "--out", str(out),
                     "--concentration", str(conc)]) == 0
        with open(conc, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sum(int(c) for _, c in rows) == 200

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "hm.csv"
        assert main(["heatmap", "--dataset", SYNTH, "--out", str(target)]) == 2

    def test_zero_time_rate_exits_1(self, tmp_path, capsys):
        assert main(["heatmap", "--dataset", SYNTH, "--out", str(tmp_path / "hm.csv"),
                     "--time-rate", "0"]) == 1
        assert "time sampling rate" in capsys.readouterr().err
        assert not (tmp_path / "hm.csv").exists()


# The exit code of every error class the package defines, and of the two
# builtins main() maps; a class added to timekge.errors must be added here.
EXIT_CODES = {
    "TimekgeError": 1, "ShapeError": 1, "DataError": 2, "OovError": 2,
    "MissingKeyError": 2, "GradCheckError": 1, "NumericError": 3, "CheckpointError": 1,
    "CheckpointCorruptError": 1, "CheckpointShapeError": 1, "CheckpointVocabError": 2,
    "ConfigError": 1, "OSError": 2, "ValueError": 1,
}
RAISED = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, Exception)] + [OSError, ValueError]


@pytest.mark.parametrize("cls", RAISED, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(monkeypatch, capsys, cls):
    def fail(args):
        raise cls((0, 0, 0)) if cls is errors.MissingKeyError else cls("boom")

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert main(["stats", "--dataset", SYNTH]) == EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err.startswith("error: ")
