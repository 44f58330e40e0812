"""The on-disk checkpoint format: round trips, refused files and the durable save."""

import json
import os

import numpy as np
import pytest

from timekge import checkpoint
from timekge.checkpoint import load_checkpoint, save_checkpoint
from timekge.datasets import Dataset, synthetic_dataset_dir
from timekge.errors import CheckpointCorruptError, CheckpointShapeError, CheckpointVocabError
from timekge.evaluation import evaluate
from timekge.scoring import Model
from timekge.training import TrainConfig, Trainer

from test_training import toy_dataset


class TestCheckpoints:
    def make_trained(self, tmp_path, variant="tnt", encoder="ste"):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        cfg = TrainConfig(variant=variant, encoder=encoder, dim_entity=8,
                          rank=1 if variant == "ftp" else 2,
                          epochs=2, seed=6, batch_size=64)
        trainer = Trainer(ds, cfg)
        trainer.run()
        path = tmp_path / "ckpt"
        save_checkpoint(path, trainer.model.params,
                        vocab_hashes=ds.vocab.hashes(), epoch=1, seed=cfg.seed,
                        num_timestamps=trainer.num_timestamps)
        return ds, trainer, path

    @pytest.mark.parametrize("encoder", ["ste", "cte"])
    @pytest.mark.parametrize("variant", ["tnt", "lowfer", "t", "cfb", "ftp"])
    def test_round_trip_bit_identical(self, tmp_path, variant, encoder):
        ds, trainer, path = self.make_trained(tmp_path, variant, encoder)
        params, manifest = load_checkpoint(path, ds)
        for name, tensor in trainer.model.params.tensors().items():
            np.testing.assert_array_equal(params.tensors()[name], tensor)
        assert manifest["epoch"] == 1
        assert manifest["rng"] == "numpy-pcg64"

    def test_round_trip_with_cyclic_encoder(self, tmp_path):
        ds, trainer, path = self.make_trained(tmp_path, variant="t", encoder="cte")
        params, _ = load_checkpoint(path, ds)
        for name, tensor in trainer.model.params.tensors().items():
            np.testing.assert_array_equal(params.tensors()[name], tensor)
        np.testing.assert_array_equal(params.encoder.component_rows,
                                      trainer.model.params.encoder.component_rows)

    def test_evaluation_survives_round_trip(self, tmp_path):
        from timekge.scoring import Model

        ds, trainer, path = self.make_trained(tmp_path)
        before = evaluate(Model(trainer.model.params), trainer.test_quads,
                          trainer.filter).to_dict()
        params, _ = load_checkpoint(path, ds)
        after = evaluate(Model(params), trainer.test_quads, trainer.filter).to_dict()
        assert before == after

    def test_vocab_hash_mismatch(self, tmp_path):
        _, _, path = self.make_trained(tmp_path)
        other = toy_dataset([[0, 0, 1, 0]], 2, 1, 1)
        with pytest.raises(CheckpointVocabError):
            load_checkpoint(path, other)

    def test_corrupt_manifest(self, tmp_path):
        ds, _, path = self.make_trained(tmp_path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, ds)

    def test_variant_relabel_breaks_layout(self, tmp_path):
        # an ftp checkpoint relabelled cfb must fail the layout check
        ds, _, path = self.make_trained(tmp_path, variant="ftp")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["variant"] = "cfb"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path, ds)

    def test_truncated_tensor_file(self, tmp_path):
        ds, _, path = self.make_trained(tmp_path)
        blob = (path / "entity.bin").read_bytes()
        (path / "entity.bin").write_bytes(blob[:-8])
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path, ds)

    def test_overlong_tensor_file(self, tmp_path):
        ds, _, path = self.make_trained(tmp_path)
        with open(path / "entity.bin", "ab") as fh:
            fh.write(bytes(8))
        with pytest.raises(CheckpointShapeError, match="entity.bin"):
            load_checkpoint(path, ds)

    def test_unreadable_tensor_file(self, tmp_path):
        ds, _, path = self.make_trained(tmp_path)
        (path / "relation.bin").unlink()
        (path / "relation.bin").mkdir()
        with pytest.raises(CheckpointCorruptError, match="relation.bin"):
            load_checkpoint(path, ds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        ds, _, path = self.make_trained(tmp_path)
        values = np.fromfile(path / "relation_proj.bin", dtype="<f8")
        values[3] = bad
        values.tofile(path / "relation_proj.bin")
        with pytest.raises(CheckpointCorruptError, match="relation_proj"):
            load_checkpoint(path, ds)

    def test_missing_tensor_file(self, tmp_path):
        ds, _, path = self.make_trained(tmp_path)
        (path / "relation.bin").unlink()
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, ds)

    def save(self, path, trainer, epoch):
        save_checkpoint(path, trainer.model.params, vocab_hashes=trainer.vocab.hashes(),
                        epoch=epoch, seed=trainer.config.seed,
                        num_timestamps=trainer.num_timestamps)

    def test_failed_overwrite_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ds, trainer, _ = self.make_trained(tmp_path)
        path = tmp_path / "checkpoint-best"
        self.save(path, trainer, epoch=0)
        before = {name: (path / f"{name}.bin").read_bytes()
                  for name in trainer.model.params.tensors()}
        for tensor in trainer.model.params.tensors().values():
            tensor += 1.0
        written = []

        def failing_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(".bin") and "w" in mode:
                written.append(file)
                if len(written) == 3:
                    raise OSError("disk full")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            self.save(path, trainer, epoch=1)
        monkeypatch.undo()
        params, manifest = load_checkpoint(path, ds)
        assert manifest["epoch"] == 0
        for name, tensor in params.tensors().items():
            assert np.ascontiguousarray(tensor, dtype="<f8").tobytes() == before[name]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint-best", "ckpt"]

        self.save(path, trainer, epoch=2)
        params, manifest = load_checkpoint(path, ds)
        assert manifest["epoch"] == 2
        assert params.entity.tobytes() == trainer.model.params.entity.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint-best", "ckpt"]

    def test_save_is_synced_before_and_after_the_swap(self, tmp_path, monkeypatch):
        _, trainer, _ = self.make_trained(tmp_path)
        path = tmp_path / "checkpoint-best"
        self.save(path, trainer, epoch=0)  # the next save also retires a checkpoint
        events = []  # ("fsync", (device, inode)) or ("replace", None), in call order
        real_fsync, real_replace = checkpoint.os.fsync, checkpoint.os.replace

        def recording_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", (st.st_dev, st.st_ino)))
            real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "fsync", recording_fsync)
        monkeypatch.setattr(checkpoint.os, "replace", recording_replace)
        self.save(path, trainer, epoch=1)
        monkeypatch.undo()

        def node(p):
            st = os.stat(p)
            return st.st_dev, st.st_ino

        replaces = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
        assert len(replaces) == 2
        synced_before = {n for kind, n in events[:replaces[0]] if kind == "fsync"}
        synced_after = {n for kind, n in events[replaces[-1]:] if kind == "fsync"}
        # the swap renames the staging directory and its files, keeping their inodes
        staged = [node(f) for f in path.iterdir()]
        assert len(staged) == len(trainer.model.params.tensors()) + 1
        assert set(staged) <= synced_before
        assert node(path) in synced_before
        assert node(tmp_path) in synced_after

    def test_leftover_staging_directory_is_replaced(self, tmp_path):
        ds, trainer, _ = self.make_trained(tmp_path)
        path = tmp_path / "checkpoint-last"
        (tmp_path / "checkpoint-last.tmp").mkdir()
        (tmp_path / "checkpoint-last.tmp" / "entity.bin").write_bytes(b"partial")
        self.save(path, trainer, epoch=1)
        assert not (tmp_path / "checkpoint-last.tmp").exists()
        assert load_checkpoint(path, ds)[1]["epoch"] == 1

    def test_refuses_to_replace_a_directory_without_manifest(self, tmp_path):
        ds, trainer, _ = self.make_trained(tmp_path)
        (tmp_path / "notes.txt").write_text("keep")
        with pytest.raises(CheckpointCorruptError, match="refusing"):
            self.save(tmp_path, trainer, epoch=1)
        assert (tmp_path / "notes.txt").read_text() == "keep"
