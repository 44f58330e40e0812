"""Loss pieces, Adam, the epoch loop, and a run's saved artifacts."""

import dataclasses
import datetime as dt
import json
import math

import numpy as np
import pytest

from timekge.datasets import Dataset, Vocab, group_targets, synthetic_dataset_dir
from timekge.errors import ConfigError, NumericError
from timekge.evaluation import evaluate
from timekge.kernels import _CHUNK
from timekge.scoring import Model, _apply_keep, _dropout_keep, init_params
from timekge import training
from timekge.checkpoint import load_checkpoint
from timekge.training import (
    AdamState,
    TrainConfig,
    Trainer,
    adam_step,
    bce_loss,
    decay_lr,
    train_epoch,
)

import test_scoring


def toy_dataset(facts, num_entities, num_relations, num_days,
                valid=None, test=None) -> Dataset:
    """Hand-built indexed dataset over synthetic token names."""
    vocab = Vocab(
        entities=[f"E{i}" for i in range(num_entities)],
        relations=[f"R{i}" for i in range(num_relations)],
        dates=[dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(num_days)],
    )
    train = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
    valid = train.copy() if valid is None else np.asarray(valid, dtype=np.int64).reshape(-1, 4)
    test = train.copy() if test is None else np.asarray(test, dtype=np.int64).reshape(-1, 4)
    return Dataset(vocab=vocab, train=train, valid=valid, test=test)


def dense_targets(rows, objects, num_rows, num_entities, smoothing):
    """The label-smoothed target matrix that ``bce_loss`` never forms whole:
    row ``rows[j]`` marks object ``objects[j]``."""
    y = np.full((num_rows, num_entities), smoothing / num_entities)
    y.reshape(-1)[np.asarray(rows) * num_entities + np.asarray(objects)] += 1.0 - smoothing
    return y


def dense_bce(x, y):
    """The loss and gradient on dense targets, in ``bce_loss``'s operations:
    elementwise terms, summed a ``_CHUNK`` at a time and then exactly."""
    x, y = np.asarray(x, dtype=np.float64).reshape(-1), y.reshape(-1)
    z = np.exp(-np.abs(x))
    terms = np.maximum(x, 0.0) + np.log1p(z) - y * x
    sums = [terms[start:start + _CHUNK].sum() for start in range(0, x.size, _CHUNK)]
    grad = (np.where(x >= 0, 1.0, z) / (z + 1.0) - y) / x.size
    return math.fsum(sums) / x.size, grad


def random_marks(rng, shape, density=0.3):
    """``(rows, objects)`` marking each element of a ``shape`` batch (or vector)
    with probability ``density``."""
    return np.nonzero(np.atleast_2d(rng.random(shape) < density))


def smoothed_row(true_objects, num_entities, smoothing):
    """The target row of one key that marks ``true_objects``."""
    objects = np.asarray(true_objects)
    return dense_targets(np.zeros_like(objects), objects, 1, num_entities, smoothing)[0]


class TestSmoothTargets:
    def test_no_smoothing_is_binary(self):
        y = smoothed_row([2], 5, 0.0)
        np.testing.assert_array_equal(y, [0, 0, 1, 0, 0])

    def test_hand_values(self):
        y = smoothed_row([7], 100, 0.01)
        assert y[7] == pytest.approx(0.9901, abs=1e-12)
        assert y[0] == pytest.approx(0.0001, abs=1e-12)

    def test_sum_identity(self):
        y = smoothed_row([1, 3, 4], 20, 0.05)
        assert y.sum() == pytest.approx(0.95 * 3 + 0.05, abs=1e-12)


NO_MARKS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


class TestBceLoss:
    def test_symmetric_point(self):
        # one candidate, unmarked: its target is the smoothing itself
        loss, _ = bce_loss(np.array([0.0]), *NO_MARKS, 0.5)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_logit_is_stable(self):
        loss, grad = bce_loss(np.array([1000.0]), [0], [0], 0.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    def test_gradient_hand_value(self):
        _, grad = bce_loss(np.array([0.0]), [0], [0], 0.0)
        assert grad[0] == pytest.approx(-0.5, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12) * 3
        marks = random_marks(rng, 12, density=0.5)
        _, grad = bce_loss(x.copy(), *marks, 0.1)
        eps = 1e-6
        for i in range(12):
            bumped = x.copy()
            bumped[i] += eps
            up, _ = bce_loss(bumped.copy(), *marks, 0.1)
            bumped[i] -= 2 * eps
            down, _ = bce_loss(bumped, *marks, 0.1)
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad[i]) / max(abs(grad[i]), 1e-8) < 1e-6

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NumericError):
            bce_loss(np.array([np.nan]), [0], [0], 0.0)

    @staticmethod
    def two_softplus_reference(x, y):
        """The textbook form: two softplus terms and a branchwise sigmoid."""
        z = np.exp(-np.abs(x))
        softplus = np.maximum(x, 0.0) + np.log1p(z)
        softplus_neg = np.maximum(-x, 0.0) + np.log1p(z)
        sigmoid = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        loss = float(np.mean(y * softplus_neg + (1.0 - y) * softplus))
        return loss, (sigmoid - y) / x.size

    @pytest.mark.parametrize("x", [
        np.zeros(5),
        np.array([1000.0, -1000.0, 0.0, 1e-300, -1e-300]),
        np.random.default_rng(4).standard_normal((3, 7)) * 5,
        # more elements than one chunk, so chunk edges are covered
        np.random.default_rng(5).standard_normal((7, 10_001)) * 20,
    ])
    def test_matches_two_softplus_form(self, x):
        marks = random_marks(np.random.default_rng(6), x.shape)
        y = dense_targets(*marks, x.size // x.shape[-1], x.shape[-1], 0.1).reshape(x.shape)
        loss, grad = bce_loss(x.copy(), *marks, 0.1)
        ref_loss, ref_grad = self.two_softplus_reference(x, y)
        assert np.array_equal(grad, ref_grad)
        assert abs(loss - ref_loss) <= 1e-14 * abs(ref_loss)

    @staticmethod
    def edge_marks(shape):
        """Marks on the first and last element and on both sides of every
        ``_CHUNK`` edge, plus a sparse spread."""
        size = int(np.prod(shape))
        flat = {0, size - 1, *range(7, size, 997)}
        for edge in range(_CHUNK, size, _CHUNK):
            flat |= {edge - 2, edge - 1, edge, edge + 1}
        rows, objects = np.divmod(np.array(sorted(flat)), shape[-1])
        return rows, objects

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("shape, view", [
        ((3 * _CHUNK + 5,), None),              # 1-D across three chunk edges
        ((40, 2 * _CHUNK // 40 + 3), None),     # 2-D, rows straddling the edges
        ((37, 11), None),                       # one chunk
        ((300, 400), "T"),                      # non-contiguous logits
        ((600, 400), "step"),
    ])
    def test_matches_dense_reference_bit_for_bit(self, shape, view, smoothing):
        base = np.random.default_rng(12).standard_normal(shape) * 6
        x = {None: base, "T": base.T, "step": base[::2]}[view]
        rows, objects = self.edge_marks(x.shape)
        y = dense_targets(rows, objects, x.size // x.shape[-1], x.shape[-1], smoothing)
        # the marks' order does not matter
        shuffle = np.random.default_rng(13).permutation(rows.size)
        loss, grad = bce_loss(x.copy(), rows[shuffle], objects[shuffle], smoothing)
        ref_loss, ref_grad = dense_bce(x, y)
        assert loss == ref_loss
        assert grad.shape == x.shape
        assert np.array_equal(grad.reshape(-1), ref_grad)

    def test_non_contiguous_logits(self):
        x = np.random.default_rng(7).standard_normal((40, 30)).T
        marks = random_marks(np.random.default_rng(8), x.shape)
        loss, grad = bce_loss(x, *marks, 0.25)
        ref_loss, ref_grad = bce_loss(np.ascontiguousarray(x), *marks, 0.25)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    def test_gradient_is_written_over_the_logits(self):
        x = np.random.default_rng(8).standard_normal((5, 9))
        marks = random_marks(np.random.default_rng(9), x.shape)
        ref_loss, ref_grad = bce_loss(x.copy(), *marks, 0.1)
        loss, grad = bce_loss(x, *marks, 0.1)
        assert grad is x and np.shares_memory(grad, x)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("view", [
        lambda x: x.T,
        lambda x: x[:, ::2],
        lambda x: x.astype(np.float32),
    ])
    def test_other_logits_are_converted_and_left_as_they_are(self, view):
        base = np.random.default_rng(10).standard_normal((30, 40)) * 4
        x = view(base)
        before = x.copy()
        marks = random_marks(np.random.default_rng(11), x.shape)
        loss, grad = bce_loss(x, *marks, 0.1)
        ref_loss, ref_grad = bce_loss(np.ascontiguousarray(x, dtype=np.float64), *marks, 0.1)
        assert not np.shares_memory(grad, x)
        assert np.array_equal(x, before)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_logits_rejected(self, bad):
        x = np.zeros(50_000)
        x[40_000] = bad
        # every target 0, then every target 1
        for marks in (NO_MARKS, (np.zeros(x.size, dtype=np.int64), np.arange(x.size))):
            with pytest.raises(NumericError):
                bce_loss(x.copy(), *marks, 0.0)

    def test_empty_logits_rejected(self):
        with pytest.raises(ConfigError):
            bce_loss(np.zeros((2, 0)), *NO_MARKS, 0.0)

    @pytest.mark.parametrize("smoothing", [-0.1, 1.0, float("nan")])
    def test_smoothing_out_of_range_rejected(self, smoothing):
        with pytest.raises(ConfigError, match="smoothing"):
            bce_loss(np.zeros((2, 3)), *NO_MARKS, smoothing)

    @pytest.mark.parametrize("rows, objects", [([2], [0]), ([0], [3]), ([-1], [0]),
                                               ([0], [-1]), ([0, 1], [0])])
    def test_marks_outside_the_logits_rejected(self, rows, objects):
        with pytest.raises(ConfigError):
            bce_loss(np.zeros((2, 3)), rows, objects, 0.0)

    def test_batch_loss_averages_rows(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 7))
        rows, objects = random_marks(rng, (3, 7))
        batch_loss, _ = bce_loss(x.copy(), rows, objects, 0.1)
        per_row = [bce_loss(x[i], np.zeros(np.sum(rows == i), dtype=np.int64),
                            objects[rows == i], 0.1)[0] for i in range(3)]
        assert batch_loss == pytest.approx(np.mean(per_row), rel=1e-12)


def dropped(x, rate, rng):
    """A copy of ``x`` with a training keep-mask drawn and applied as Model.fuse does."""
    out = np.array(x, dtype=np.float64)
    _apply_keep(out, _dropout_keep(out.shape, rate, True, rng), rate)
    return out


class TestDropout:
    def test_zero_rate_is_identity(self):
        assert _dropout_keep((5,), 0.0, True, None) is None

    def test_eval_mode_is_identity(self):
        assert _dropout_keep((5,), 0.9, False, np.random.default_rng(0)) is None

    def test_survivors_scaled(self):
        rng = np.random.default_rng(2)
        y = dropped(np.ones(1000), 0.25, rng)
        assert set(np.unique(y)) <= {0.0, 1.0 / 0.75}

    def test_expectation_preserved(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.5, 2.0, 8)
        total = np.zeros_like(x)
        draws = 100_000
        for _ in range(draws):
            total += dropped(x, 0.3, rng)
        np.testing.assert_allclose(total / draws, x, rtol=0.02)

    @pytest.mark.parametrize("rate", [-0.5, -1e-12, 1.0, 1.5])
    def test_out_of_range_rate_rejected(self, rate):
        with pytest.raises(ConfigError):
            _dropout_keep((4,), rate, True, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            _dropout_keep((4,), rate, False, np.random.default_rng(0))

    def test_uses_the_training_mask(self):
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        mask = (np.random.default_rng(8).random(x.shape) >= 0.3) / (1.0 - 0.3)
        assert np.array_equal(dropped(x, 0.3, np.random.default_rng(8)), x * mask)
        # negative, infinite and nan inputs, dropped and kept: the same values,
        # nans and zero signs as one multiply by the float mask
        x = np.tile([-2.5, -0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 3.0], (12, 1))
        mask = (np.random.default_rng(9).random(x.shape) >= 0.5) / (1.0 - 0.5)
        assert (mask == 0).any(axis=0).all() and mask.any(axis=0).all()
        with np.errstate(invalid="ignore"):
            expected = x * mask
            out = dropped(x, 0.5, np.random.default_rng(9))
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        theta = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(theta)
        before = theta["w"].copy()
        for _ in range(3):
            adam_step(theta, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(theta["w"], before)

    def test_first_step_hand_value(self):
        theta = {"w": np.array([1.0])}
        state = AdamState.for_params(theta)
        adam_step(theta, {"w": np.array([1.0])}, state, lr=0.1)
        # m_hat = g, sqrt(v_hat) = |g| at step 1
        assert theta["w"][0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-12)

    def test_steps_move_against_gradient_sign(self):
        theta = {"w": np.array([0.0])}
        state = AdamState.for_params(theta)
        history = []
        for _ in range(5):
            adam_step(theta, {"w": np.array([2.5])}, state, lr=0.01)
            history.append(theta["w"][0])
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_matches_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(9)
        # one tensor spans several update chunks, the other is tiny
        shapes = {"big": (300, 250), "small": (3,)}
        theta = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: t.copy() for k, t in theta.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        state = AdamState.for_params(theta)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.05
        for step in range(1, 4):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            adam_step(theta, grads, state, lr)
            for k, g in kept.items():
                assert np.array_equal(grads[k], g)  # grads are only read
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                m_hat = ref_m[k] / (1.0 - b1 ** step)
                v_hat = ref_v[k] / (1.0 - b2 ** step)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in shapes:
            assert np.array_equal(theta[k], ref[k])
            assert np.array_equal(state.m[k], ref_m[k])
            assert np.array_equal(state.v[k], ref_v[k])

    def test_non_contiguous_parameter_rejected(self):
        theta = {"w": np.zeros((4, 3)).T}
        state = AdamState.for_params({"w": np.zeros((3, 4))})
        with pytest.raises(ConfigError):
            adam_step(theta, {"w": np.ones((3, 4))}, state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        theta = {"w": np.zeros(3)}
        state = AdamState.for_params(theta)
        with pytest.raises(ConfigError):
            adam_step(theta, {"w": np.zeros(4)}, state, lr=0.1)


class TestTrainConfig:
    # every config TrainConfig.validate refused before it deferred its model
    # rules to param_layout: each is still refused
    @pytest.mark.parametrize("changes", [
        {"rank": "32"}, {"epochs": 2.5}, {"dim_relation": True}, {"lr": None},
        {"variant": 3}, {"variant": "noexist"}, {"encoder": "xte"},
        {"variant": "lowfer", "encoder": "xte"}, {"encoder": None},
        {"dim_entity": 0}, {"dim_relation": 0}, {"dim_time": 0}, {"rank": 0},
        {"rank": -3}, {"batch_size": 0}, {"lr": -0.01}, {"lr": math.nan},
        {"lr": math.inf}, {"decay": -0.5}, {"decay": math.nan}, {"epochs": -1},
        {"lr": 1e-300, "decay": 1e200, "epochs": 3}, {"label_smoothing": 1.0},
        {"label_smoothing": -0.1}, {"dropout_input": 1.0}, {"dropout_hidden": -0.1},
        {"time_sampling_rate": 0},
    ], ids=repr)
    def test_parent_refusals_still_refused(self, changes):
        with pytest.raises(ConfigError):
            TrainConfig(**changes).validate()

    @pytest.mark.parametrize("changes, message", [
        ({"variant": "ftp"}, "ftp requires rank 1"),
        ({"variant": "t", "dim_relation": 8, "dim_time": 4}, "dim_time == dim_relation"),
        ({"variant": "tnt", "dim_entity": 8, "dim_time": 4}, "dim_time == dim_relation"),
    ])
    def test_model_rules_need_no_data(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**changes).validate()


class TestDecay:
    def test_paper_schedule_values(self):
        assert decay_lr(0.01, 0.99, 0) == pytest.approx(0.01)
        assert decay_lr(0.01, 0.99, 1) == pytest.approx(0.0099)

    def test_unit_decay_is_constant(self):
        assert decay_lr(0.01, 1.0, 500) == 0.01

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            decay_lr(0.01, 0.99, -1)

    @pytest.mark.parametrize("lr, decay", [(1e-300, 1e200), (1e300, 1e10)])
    def test_overflowing_schedule_refused(self, lr, decay):
        # decay ** 2 overflows the float range; lr * decay ** 2 overflows to inf
        with pytest.raises(ConfigError, match="overflows"):
            TrainConfig(lr=lr, decay=decay, epochs=3).validate()

    def test_schedule_checked_only_over_the_configured_epochs(self):
        TrainConfig(lr=1e-300, decay=1e200, epochs=2).validate()
        TrainConfig(lr=0.01, decay=1e200, epochs=0).validate()


class TestTrainingLoop:
    def test_zero_lr_leaves_parameters_untouched(self):
        ds = toy_dataset([[0, 0, 1, 0], [1, 0, 2, 1]], 3, 1, 2)
        cfg = TrainConfig(variant="t", dim_entity=4, rank=2, lr=0.0,
                          epochs=3, seed=1, batch_size=2)
        trainer = Trainer(ds, cfg)
        before = {k: v.copy() for k, v in trainer.model.params.tensors().items()}
        trainer.run()
        for name, tensor in trainer.model.params.tensors().items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_single_fact_overfits_to_rank_one(self):
        ds = toy_dataset([[0, 0, 1, 0]], 2, 1, 1)
        cfg = TrainConfig(variant="t", dim_entity=8, rank=2, epochs=200,
                          seed=2, batch_size=2, label_smoothing=0.0,
                          dropout_input=0.0, dropout_hidden=0.0)
        trainer = Trainer(ds, cfg)
        history = trainer.run()
        assert history[-1].loss < 0.01
        metrics = trainer.evaluate_split("train")
        assert metrics.mrr == 1.0

    def test_same_seed_reproduces_loss_trajectory(self):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        cfg = TrainConfig(variant="tnt", dim_entity=8, rank=2, epochs=3,
                          seed=11, batch_size=64)
        losses = []
        for _ in range(2):
            trainer = Trainer(ds, cfg)
            losses.append([r.loss for r in trainer.run()])
        assert losses[0] == losses[1]

    @staticmethod
    def chunk_edge_run(variant, encoder):
        """Keys, targets, config and a seeded model factory of a batch whose
        logits span several loss chunks and whose B x W products span
        several row blocks, which the seeded digests' 64 x 40 batches never
        reach."""
        n, e, r, t, d, k = 200, 600, 5, 12, 32, 16
        assert n * e >= 3 * _CHUNK and n * k * d >= 3 * _CHUNK
        rng = np.random.default_rng(0)
        facts = np.stack([rng.integers(0, e, 3000), rng.integers(0, 2 * r, 3000),
                          rng.integers(0, e, 3000), rng.integers(0, t, 3000)], axis=1)
        targets = group_targets(facts)
        dates = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(t)]
        cfg = TrainConfig(variant=variant, encoder=encoder, dim_entity=d, rank=k, batch_size=n)

        def fresh_model():
            return Model(init_params(variant, e, r, k, d, encoder=encoder, num_timestamps=t,
                                     dates=dates, rng=np.random.default_rng(1)))

        return targets.key_array[:n], targets, cfg, fresh_model

    @pytest.mark.parametrize("variant", ["tnt", "cfb"])
    @pytest.mark.parametrize("encoder", ["ste", "cte"])
    def test_step_matches_reference_pieces_across_chunk_edges(self, variant, encoder):
        keys, targets, cfg, fresh_model = self.chunk_edge_run(variant, encoder)
        trained = fresh_model()
        train_epoch(trained, keys, targets, cfg, AdamState.for_params(trained.params.tensors()),
                    np.random.default_rng(2), cfg.lr)

        model = fresh_model()
        step_rng = np.random.default_rng(2)
        batch = keys[step_rng.permutation(keys.shape[0])]
        y = dense_targets(*targets.lookup(batch), batch.shape[0], model.params.num_entities,
                          cfg.label_smoothing)
        logits, cache = model.forward(batch[:, 0], batch[:, 1], batch[:, 2], training=True,
                                      dropout_input=cfg.dropout_input,
                                      dropout_hidden=cfg.dropout_hidden, rng=step_rng)
        _, dlogits = TestBceLoss.two_softplus_reference(logits, y)
        grads = test_scoring.TestBackward.reference_backward(model, cache, dlogits)
        tensors = model.params.tensors()
        adam_step(tensors, grads, AdamState.for_params(tensors), cfg.lr)
        for name, tensor in trained.params.tensors().items():
            assert tensor.tobytes() == tensors[name].tobytes(), name

    @pytest.mark.parametrize("variant, encoder", [("tnt", "ste"), ("cfb", "cte")])
    def test_step_reads_no_scratch_before_writing_it(self, variant, encoder, monkeypatch):
        # every array np.empty hands out starts as NaN (bool True, int -1), so
        # a step that read a scratch element before writing it would change bits
        keys, targets, cfg, fresh_model = self.chunk_edge_run(variant, encoder)

        def step():
            model = fresh_model()
            adam = AdamState.for_params(model.params.tensors())
            loss = train_epoch(model, keys, targets, cfg, adam, np.random.default_rng(2), cfg.lr)
            arrays = [*model.params.tensors().values(), *adam.m.values(), *adam.v.values()]
            return [float(loss).hex()] + [a.tobytes() for a in arrays]

        clean = step()
        empty, poisoned = np.empty, []

        def poisoned_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill({"f": np.nan, "b": True}.get(out.dtype.kind, -1))
            poisoned.append(out.size)
            return out

        monkeypatch.setattr(np, "empty", poisoned_empty)
        assert step() == clean
        assert max(poisoned) >= _CHUNK

    @pytest.mark.parametrize("variant", ["lowfer", "t", "tnt", "cfb", "ftp"])
    def test_loss_decreases_on_small_kg(self, variant):
        rng = np.random.default_rng(7)
        facts = np.stack([
            rng.integers(0, 8, size=20), rng.integers(0, 3, size=20),
            rng.integers(0, 8, size=20), rng.integers(0, 4, size=20),
        ], axis=1)
        ds = toy_dataset(facts, 8, 3, 4)
        rank = 1 if variant == "ftp" else 2
        cfg = TrainConfig(variant=variant, dim_entity=8, rank=rank, lr=0.01,
                          epochs=10, seed=3, batch_size=8,
                          dropout_input=0.0, dropout_hidden=0.0)
        trainer = Trainer(ds, cfg)
        losses = [r.loss for r in trainer.run()]
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert increases <= 2, losses

    def test_non_finite_loss_reports_context(self):
        # Adam-normalized steps keep moderate lr blowups finite; an lr
        # this large overflows the fusion product on the next forward
        ds = toy_dataset([[0, 0, 1, 0], [1, 0, 2, 1]], 3, 1, 2)
        cfg = TrainConfig(variant="ftp", rank=1, dim_entity=4, lr=1e150,
                          epochs=5, seed=4, batch_size=2)
        trainer = Trainer(ds, cfg)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch"):
            trainer.run()

    def test_target_matrix_matches_smooth_targets(self, monkeypatch):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        cfg = TrainConfig(variant="tnt", dim_entity=8, rank=2, epochs=1,
                          seed=2, batch_size=64)
        trainer = Trainer(ds, cfg)
        batches = []

        def spy(logits, rows, objects, smoothing):
            batches.append(dense_targets(rows, objects, *logits.shape, smoothing))
            return bce_loss(logits, rows, objects, smoothing)

        monkeypatch.setattr(training, "bce_loss", spy)
        order = np.random.default_rng(11).permutation(trainer.keys.shape[0])
        training.train_epoch(trainer.model, trainer.keys, trainer.targets, cfg,
                             trainer.adam, np.random.default_rng(11), cfg.lr)
        keys = trainer.keys[order]
        y = np.concatenate(batches)
        num_entities, smoothing = ds.vocab.num_entities, cfg.label_smoothing
        for i, (s, p, t) in enumerate(keys.tolist()):
            expected = np.full(num_entities, smoothing / num_entities)
            expected[trainer.targets[(s, p, t)]] += 1.0 - smoothing
            assert np.array_equal(y[i], expected)

    def test_validation_records_on_interval(self):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        cfg = TrainConfig(variant="t", dim_entity=8, rank=2, epochs=4,
                          seed=5, batch_size=64)
        trainer = Trainer(ds, cfg)
        history = trainer.run(eval_interval=2)
        assert [r.val is not None for r in history] == [False, True, False, True]


class TestRunArtifacts:
    """``Trainer.run`` given a directory writes the history and saves by the policy."""

    def run(self, directory, policy, every=None, epochs=4):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        cfg = TrainConfig(variant="tnt", dim_entity=8, rank=2, epochs=epochs, seed=0,
                          batch_size=64)
        trainer = Trainer(ds, cfg)
        trainer.run(1, directory, policy, every)
        return ds, trainer

    @staticmethod
    def checkpoints(directory):
        return sorted(p.name for p in directory.iterdir() if p.name.startswith("checkpoint"))

    def test_history_file_holds_every_record(self, tmp_path):
        _, trainer = self.run(tmp_path, "last")
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [r.to_json() for r in trainer.history]

    def test_best_checkpoint_holds_the_first_best_epoch(self, tmp_path):
        ds, trainer = self.run(tmp_path, "best")
        mrrs = [r.val["mrr"] for r in trainer.history]
        best = mrrs.index(max(mrrs))
        # neither the first nor the last evaluation, so both would be caught
        assert 0 < best < len(mrrs) - 1
        assert self.checkpoints(tmp_path) == ["checkpoint-best"]
        params, manifest = load_checkpoint(tmp_path / "checkpoint-best", ds)
        assert manifest["epoch"] == best
        assert manifest["config"] == dataclasses.asdict(trainer.config)
        metrics = evaluate(Model(params), trainer.valid_quads, trainer.filter)
        assert metrics.to_dict() == trainer.history[best].val

    @pytest.mark.parametrize("every", [2, 3])
    def test_every_policy_saves_each_nth_epoch(self, tmp_path, every):
        ds, _ = self.run(tmp_path, "every", every)
        epochs = [e for e in range(4) if (e + 1) % every == 0]
        assert self.checkpoints(tmp_path) == [f"checkpoint-epoch-{e}" for e in epochs]
        for e in epochs:
            assert load_checkpoint(tmp_path / f"checkpoint-epoch-{e}", ds)[1]["epoch"] == e

    def test_last_policy_saves_only_the_last_epoch(self, tmp_path):
        ds, trainer = self.run(tmp_path, "last")
        assert self.checkpoints(tmp_path) == ["checkpoint-last"]
        params, manifest = load_checkpoint(tmp_path / "checkpoint-last", ds)
        assert manifest["epoch"] == 3
        for name, tensor in trainer.model.params.tensors().items():
            assert params.tensors()[name].tobytes() == tensor.tobytes()

    def test_checkpoints_an_earlier_run_left_do_not_count(self, tmp_path):
        self.run(tmp_path, "every", 2)
        # one epoch saves nothing under the policy, so the run falls back to its last state
        ds, _ = self.run(tmp_path, "every", 2, epochs=1)
        assert self.checkpoints(tmp_path) == [
            "checkpoint-epoch-1", "checkpoint-epoch-3", "checkpoint-last"]
        manifest = load_checkpoint(tmp_path / "checkpoint-last", ds)[1]
        assert manifest["epoch"] == 0 and manifest["config"]["epochs"] == 1

    def test_best_policy_refuses_an_empty_valid_split_before_training(self, tmp_path):
        ds = toy_dataset([[0, 0, 1, 0], [1, 0, 2, 1]], 3, 1, 2, valid=np.zeros((0, 4)))
        trainer = Trainer(ds, TrainConfig(variant="t", dim_entity=4, rank=2, epochs=2,
                                          seed=1, batch_size=2))
        with pytest.raises(ConfigError, match="valid split"):
            trainer.run(1, tmp_path, "best", 1)
        assert trainer.history == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("policy, every", [
        ("bset", 1), ("every", 0), ("every", None), ("last", -1)])
    def test_unknown_policy_or_interval_refused_before_training(self, tmp_path,
                                                                policy, every):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        trainer = Trainer(ds, TrainConfig(variant="tnt", dim_entity=8, rank=2, epochs=1,
                                          seed=0, batch_size=64))
        with pytest.raises(ConfigError, match="checkpoint"):
            trainer.run(1, tmp_path, policy, every)
        assert trainer.history == [] and not any(tmp_path.iterdir())

    def test_no_directory_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ds = Dataset.from_dir(synthetic_dataset_dir())
        Trainer(ds, TrainConfig(variant="tnt", dim_entity=8, rank=2, epochs=2, seed=0,
                                batch_size=64)).run(eval_interval=1)
        assert not any(tmp_path.iterdir())
