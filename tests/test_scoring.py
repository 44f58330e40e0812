"""Fusion algebra, 1-N scoring, and the hand-derived backward passes."""

import datetime as dt

import numpy as np
import pytest

from timekge.errors import ConfigError, ShapeError
from timekge.gradcheck import finite_diff_check
from timekge.kernels import hadamard, matvec_t, sum_pool
from timekge.scoring import (
    Model,
    Variant,
    _dropout_mask,
    fuse_cfb,
    fuse_ftp,
    fuse_lowfer,
    fuse_t,
    fuse_tnt,
    init_params,
    score_all,
)
from timekge.training import bce_loss

TINY = dict(num_entities=5, num_relations=3, dim_entity=4, num_timestamps=4)
TINY_DATES = [dt.date(2014, 1, d + 1) for d in range(4)]


def tiny_model(variant, encoder="ste", seed=0, scale=1.0):
    """Random tiny model with O(1) parameter values (well-conditioned
    for finite differences; the default 0.05-scale init puts many true
    gradients below the noise floor of central differences)."""
    rng = np.random.default_rng(seed)
    rank = 1 if variant == "ftp" else 2
    params = init_params(variant, rank=rank, encoder=encoder, dates=TINY_DATES,
                         rng=rng, **TINY)
    for t in params.tensors().values():
        t[...] = rng.normal(0.0, scale, size=t.shape)
    return Model(params)


def random_batch(rng, n=4):
    return (rng.integers(0, TINY["num_entities"], size=n),
            rng.integers(0, 2 * TINY["num_relations"], size=n),
            rng.integers(0, TINY["num_timestamps"], size=n))


class TestFusionExamples:
    def test_lowfer_identity_projections(self):
        g = fuse_lowfer([1.0, 2.0], [3.0, 4.0], np.eye(2), np.eye(2), rank=1)
        np.testing.assert_array_equal(g, [3.0, 8.0])

    def test_lowfer_zero_relation(self):
        rng = np.random.default_rng(0)
        g = fuse_lowfer(rng.standard_normal(3), np.zeros(3),
                        rng.standard_normal((3, 6)), rng.standard_normal((3, 6)),
                        rank=2)
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_lowfer_matches_kernel_composition(self):
        rng = np.random.default_rng(1)
        subj, rel = rng.standard_normal((2, 3))
        sp, rp = rng.standard_normal((2, 3, 6))
        g = fuse_lowfer(subj, rel, sp, rp, rank=2)
        reference = sum_pool(hadamard(matvec_t(sp, subj), matvec_t(rp, rel)), 2)
        np.testing.assert_allclose(g, reference, rtol=1e-14)

    def test_ftp_hand_values(self):
        g = fuse_ftp([1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
                     np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_array_equal(g, [15.0, 48.0])

    def test_ftp_zero_coordinate_annihilates(self):
        rng = np.random.default_rng(2)
        sp, rp, tp = rng.standard_normal((3, 2, 2))
        rel = rng.standard_normal(2)
        time = rng.standard_normal(2)
        subj = np.zeros(2)  # zero subject projection coordinate-wise
        g = fuse_ftp(subj, rel, time, sp, rp, tp)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_cfb_zero_time(self):
        rng = np.random.default_rng(3)
        g = fuse_cfb(rng.standard_normal(2), rng.standard_normal(2), np.zeros(2),
                     rng.standard_normal((2, 4)), rng.standard_normal((2, 4)),
                     rng.standard_normal((2, 4)), rng.standard_normal((4, 4)),
                     rank=2)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_cfb_identity_chain_is_triple_hadamard(self):
        rng = np.random.default_rng(4)
        subj, rel, time = rng.standard_normal((3, 3))
        sp, rp, tp = rng.standard_normal((3, 3, 6))
        g = fuse_cfb(subj, rel, time, sp, rp, tp, np.eye(6), rank=2)
        reference = sum_pool(
            hadamard(matvec_t(sp, subj), hadamard(matvec_t(rp, rel), matvec_t(tp, time))),
            2)
        np.testing.assert_allclose(g, reference, rtol=1e-14)


class TestSubsumption:
    """The reduction chain between variants, at double-precision exactness."""

    def test_tnt_with_zero_static_equals_t(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            subj, rel, time = rng.standard_normal((3, 4))
            sp, rp = rng.standard_normal((2, 4, 8))
            left = fuse_tnt(subj, rel, np.zeros(4), time, sp, rp, rank=2)
            right = fuse_t(subj, rel, time, sp, rp, rank=2)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_t_with_unit_time_equals_lowfer(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            subj, rel = rng.standard_normal((2, 4))
            sp, rp = rng.standard_normal((2, 4, 8))
            left = fuse_t(subj, rel, np.ones(4), sp, rp, rank=2)
            right = fuse_lowfer(subj, rel, sp, rp, rank=2)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_cfb_identity_chain_rank_one_equals_ftp(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            subj, rel, time = rng.standard_normal((3, 4))
            sp, rp, tp = rng.standard_normal((3, 4, 4))
            left = fuse_cfb(subj, rel, time, sp, rp, tp, np.eye(4), rank=1)
            right = fuse_ftp(subj, rel, time, sp, rp, tp)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_tnt_with_zero_temporal_reduces_to_static_lowfer(self):
        rng = np.random.default_rng(8)
        subj, rel_static, time = rng.standard_normal((3, 4))
        sp, rp = rng.standard_normal((2, 4, 8))
        left = fuse_tnt(subj, np.zeros(4), rel_static, time, sp, rp, rank=2)
        right = fuse_lowfer(subj, rel_static, sp, rp, rank=2)
        np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_t_equals_lowfer_on_premodulated_relation(self):
        rng = np.random.default_rng(9)
        subj, rel, time = rng.standard_normal((3, 4))
        sp, rp = rng.standard_normal((2, 4, 8))
        left = fuse_t(subj, rel, time, sp, rp, rank=2)
        right = fuse_lowfer(subj, rel * time, sp, rp, rank=2)
        np.testing.assert_allclose(left, right, rtol=1e-15)


class TestScoreAll:
    def test_zero_query_gives_zero_logits(self):
        table = np.random.default_rng(0).standard_normal((6, 3))
        np.testing.assert_array_equal(score_all(np.zeros(3), table), np.zeros(6))

    def test_identity_table_returns_query(self):
        g = np.array([0.5, -1.0, 2.0])
        np.testing.assert_array_equal(score_all(g, np.eye(3)), g)

    def test_single_entity(self):
        g = np.array([1.0, 2.0])
        table = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(score_all(g, table), [11.0])

    def test_linear_in_query(self):
        rng = np.random.default_rng(1)
        g1, g2 = rng.standard_normal((2, 4))
        table = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            score_all(2.0 * g1 + g2, table),
            2.0 * score_all(g1, table) + score_all(g2, table), rtol=1e-12)

    def test_linear_in_entity_rows(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal(4)
        t1, t2 = rng.standard_normal((2, 5, 4))
        np.testing.assert_allclose(
            score_all(g, 0.5 * t1 + 2.0 * t2),
            0.5 * score_all(g, t1) + 2.0 * score_all(g, t2), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            score_all(np.zeros(3), np.zeros((5, 4)))


class TestModelForward:
    @pytest.mark.parametrize("variant", ["lowfer", "t", "tnt", "cfb", "ftp"])
    def test_matches_free_fusion_functions(self, variant):
        model = tiny_model(variant, seed=11)
        p = model.params
        rng = np.random.default_rng(12)
        s, pr, t = random_batch(rng)
        cache = model.fuse(s, pr, t if variant != "lowfer" else None)
        subj = p.entity[s]
        rel = p.relation[pr]
        if variant == "lowfer":
            expected = fuse_lowfer(subj, rel, p.subject_proj, p.relation_proj, p.rank)
        else:
            time = p.encoder.encode_batch(t)
            if variant == "t":
                expected = fuse_t(subj, rel, time, p.subject_proj, p.relation_proj, p.rank)
            elif variant == "tnt":
                expected = fuse_tnt(subj, rel, p.relation_static[pr], time,
                                    p.subject_proj, p.relation_proj, p.rank)
            elif variant == "cfb":
                expected = fuse_cfb(subj, rel, time, p.subject_proj, p.relation_proj,
                                    p.time_proj, p.chain_proj, p.rank)
            else:
                expected = fuse_ftp(subj, rel, time, p.subject_proj, p.relation_proj,
                                    p.time_proj)
        np.testing.assert_array_equal(cache.g, expected)

    def test_logits_are_query_times_entities(self):
        model = tiny_model("t", seed=13)
        rng = np.random.default_rng(14)
        s, pr, t = random_batch(rng)
        logits, cache = model.forward(s, pr, t)
        np.testing.assert_allclose(logits, cache.g @ model.params.entity.T, rtol=1e-15)

    def test_temporal_variant_requires_timestamps(self):
        model = tiny_model("t")
        with pytest.raises(ShapeError):
            model.fuse([0], [1])

    def test_dropout_masks_only_in_training(self):
        model = tiny_model("tnt", seed=15)
        rng = np.random.default_rng(16)
        s, pr, t = random_batch(rng)
        eval_cache = model.fuse(s, pr, t, dropout_input=0.5, dropout_hidden=0.5)
        assert eval_cache.mask_input is None and eval_cache.mask_hidden is None
        train_cache = model.fuse(s, pr, t, training=True, dropout_input=0.5,
                                 dropout_hidden=0.5, rng=np.random.default_rng(0))
        assert train_cache.mask_input is not None
        assert set(np.unique(train_cache.mask_input)) <= {0.0, 2.0}


    def test_dropout_mask_is_the_scaled_uniform_draw(self):
        mask = _dropout_mask((6, 5), 0.3, True, np.random.default_rng(21))
        expected = (np.random.default_rng(21).random((6, 5)) >= 0.3) / (1.0 - 0.3)
        assert mask.dtype == np.float64
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("rate", [-0.5, 1.0])
    def test_out_of_range_dropout_rejected(self, rate, training):
        with pytest.raises(ConfigError):
            _dropout_mask((2, 3), rate, training, np.random.default_rng(0))
        model = tiny_model("tnt", seed=15)
        s, pr, t = random_batch(np.random.default_rng(16))
        with pytest.raises(ConfigError):
            model.fuse(s, pr, t, training=training, dropout_input=rate,
                       rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            model.fuse(s, pr, t, training=training, dropout_hidden=rate,
                       rng=np.random.default_rng(0))


class TestBuildGuards:
    def test_ftp_requires_rank_one(self):
        with pytest.raises(ConfigError, match="rank 1"):
            init_params("ftp", rank=2, encoder="ste", **TINY)

    def test_modulation_requires_matching_time_dim(self):
        with pytest.raises(ConfigError, match="dim_time"):
            init_params("t", rank=2, encoder="ste", dim_time=3, **TINY)

    def test_cfb_chain_starts_near_identity(self):
        params = init_params("cfb", rank=2, encoder="ste", **TINY,
                             rng=np.random.default_rng(0))
        width = 2 * TINY["dim_entity"]
        assert np.abs(params.chain_proj - np.eye(width)).max() < 0.1

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            Variant.from_string("tucker")


class TestBackward:
    @pytest.mark.parametrize("variant", ["lowfer", "t", "tnt", "cfb", "ftp"])
    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, variant, seed):
        model = tiny_model(variant, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        s, pr, t = random_batch(rng)
        targets = rng.random((4, TINY["num_entities"]))

        def loss():
            logits, _ = model.forward(s, pr, t)
            return bce_loss(logits, targets)[0]

        logits, cache = model.forward(s, pr, t)
        _, dlogits = bce_loss(logits, targets)
        grads = model.backward(cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=24, seed=seed)
        assert report.max_rel_error < 1e-4, report

    @pytest.mark.parametrize("variant", ["t", "tnt", "cfb"])
    def test_gradients_with_cyclic_encoder(self, variant):
        model = tiny_model(variant, encoder="cte", seed=3)
        rng = np.random.default_rng(30)
        s, pr, t = random_batch(rng)
        targets = rng.random((4, TINY["num_entities"]))

        def loss():
            logits, _ = model.forward(s, pr, t)
            return bce_loss(logits, targets)[0]

        logits, cache = model.forward(s, pr, t)
        _, dlogits = bce_loss(logits, targets)
        grads = model.backward(cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=16, seed=31)
        assert report.max_rel_error < 1e-4, report

    def test_gradients_through_dropout_masks(self):
        # a regenerated generator yields the same masks on every probe
        model = tiny_model("cfb", seed=4)
        rng = np.random.default_rng(40)
        s, pr, t = random_batch(rng)
        targets = rng.random((4, TINY["num_entities"]))

        def forward():
            return model.forward(s, pr, t, training=True, dropout_input=0.3,
                                 dropout_hidden=0.3, rng=np.random.default_rng(99))

        def loss():
            logits, _ = forward()
            return bce_loss(logits, targets)[0]

        logits, cache = forward()
        _, dlogits = bce_loss(logits, targets)
        grads = model.backward(cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=16, seed=41)
        assert report.max_rel_error < 1e-4, report

    @staticmethod
    def reference_backward(model, cache, dlogits):
        """Unfused backward pass: every product a new array, every gradient
        accumulated into zeros."""
        p = model.params
        grads = p.zero_grads()
        dg = dlogits @ p.entity
        grads["entity"] += dlogits.T @ cache.g
        dg = dg * cache.mask_hidden
        dh = np.repeat(dg, p.rank, axis=1) * cache.mask_input
        if p.variant in (Variant.CFB, Variant.FTP):
            da, dw = dh * cache.w, dh * cache.a
            if p.variant is Variant.CFB:
                grads["chain_proj"] += cache.inner.T @ dw
                dinner = dw @ p.chain_proj.T
            else:
                dinner = dw
            db, dc = dinner * cache.c, dinner * cache.b
            grads["time_proj"] += cache.time.T @ dc
            dtime = dc @ p.time_proj.T
        else:
            da, db, dtime = dh * cache.b, dh * cache.a, None
        grads["relation_proj"] += cache.rel_in.T @ db
        drel = drel_in = db @ p.relation_proj.T
        if p.variant in (Variant.T, Variant.TNT):
            drel, dtime = drel_in * cache.time, drel_in * cache.rel
        if p.variant is Variant.TNT:
            np.add.at(grads["relation_static"], cache.p_idx, drel_in)
        grads["subject_proj"] += cache.subj.T @ da
        np.add.at(grads["entity"], cache.s_idx, da @ p.subject_proj.T)
        np.add.at(grads["relation"], cache.p_idx, drel)
        if dtime is not None:
            p.encoder.scatter_grad(cache.t_idx, dtime, grads)
        return grads

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    @pytest.mark.parametrize("encoder", ["ste", "cte"])
    def test_matches_unfused_reference_bit_for_bit(self, variant, encoder):
        model = tiny_model(variant, encoder=encoder, seed=30)
        rng = np.random.default_rng(31)
        s, pr, t = random_batch(rng, n=6)
        logits, cache = model.forward(s, pr, t, training=True, dropout_input=0.3,
                                      dropout_hidden=0.4, rng=rng)
        dlogits = rng.standard_normal(logits.shape)
        kept = {name: getattr(cache, name) for name in ("a", "b", "g", "mask_input")}
        kept = {name: value.copy() for name, value in kept.items()}
        grads = model.backward(cache, dlogits)
        expected = self.reference_backward(model, cache, dlogits)
        assert list(grads) == list(expected)
        for name, grad in grads.items():
            assert np.array_equal(grad, expected[name]), name
        for name, value in kept.items():
            assert np.array_equal(getattr(cache, name), value), name

    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model("cfb", seed=5)
        rng = np.random.default_rng(50)
        s, pr, t = random_batch(rng)
        _, cache = model.forward(s, pr, t)
        grads = model.backward(cache, np.zeros((4, TINY["num_entities"])))
        assert all(not g.any() for g in grads.values())

    def test_untouched_tensors_get_zero_gradient(self):
        model = tiny_model("lowfer", seed=6)
        grads = model.params.zero_grads()
        assert set(grads) == {"entity", "relation", "subject_proj", "relation_proj"}

    def test_batch_size_mismatch_rejected(self):
        model = tiny_model("t", seed=7)
        rng = np.random.default_rng(70)
        s, pr, t = random_batch(rng)
        _, cache = model.forward(s, pr, t)
        with pytest.raises(ShapeError):
            model.backward(cache, np.zeros((3, TINY["num_entities"])))

    def test_repeated_entity_accumulates_both_roles(self):
        model = tiny_model("t", seed=8)
        rng = np.random.default_rng(80)
        dlogits = rng.standard_normal((2, TINY["num_entities"]))
        s = np.array([2, 2])
        pr = np.array([0, 4])
        t = np.array([1, 3])
        _, cache = model.forward(s, pr, t)
        grads = model.backward(cache, dlogits)
        total = np.zeros_like(model.params.entity)
        for i in range(2):
            _, single = model.forward(s[i:i+1], pr[i:i+1], t[i:i+1])
            g_i = model.backward(single, dlogits[i:i+1])
            total += g_i["entity"]
        np.testing.assert_allclose(grads["entity"], total, rtol=1e-12, atol=1e-14)

    def test_batch_permutation_leaves_gradients_unchanged(self):
        model = tiny_model("tnt", seed=9)
        rng = np.random.default_rng(90)
        s, pr, t = random_batch(rng, n=6)
        dlogits = rng.standard_normal((6, TINY["num_entities"]))
        _, cache = model.forward(s, pr, t)
        grads = model.backward(cache, dlogits)
        perm = rng.permutation(6)
        _, cache_p = model.forward(s[perm], pr[perm], t[perm])
        grads_p = model.backward(cache_p, dlogits[perm])
        for name in grads:
            np.testing.assert_allclose(grads_p[name], grads[name],
                                       rtol=1e-12, atol=1e-12)

    def test_tnt_static_gradient_matches_t_model_bias_route(self):
        # with identical weights and zero static table, the TNT static
        # gradient is the T relation gradient with the modulation undone
        t_model = tiny_model("t", seed=10)
        tnt_model = tiny_model("tnt", seed=10)
        for name, tensor in t_model.params.tensors().items():
            tnt_model.params.tensors()[name][...] = tensor
        tnt_model.params.relation_static[...] = 0.0

        rng = np.random.default_rng(100)
        s = np.array([0, 1])
        pr = np.array([2, 5])  # distinct relations: no scatter overlap
        t = np.array([0, 3])
        dlogits = rng.standard_normal((2, TINY["num_entities"]))

        _, cache_t = t_model.forward(s, pr, t)
        grads_t = t_model.backward(cache_t, dlogits)
        _, cache_tnt = tnt_model.forward(s, pr, t)
        grads_tnt = tnt_model.backward(cache_tnt, dlogits)

        time = t_model.params.encoder.encode_batch(t)
        for i, p in enumerate(pr):
            np.testing.assert_allclose(
                grads_t["relation"][p],
                grads_tnt["relation_static"][p] * time[i], rtol=1e-12)


class TestCountParameters:
    def test_lowfer_shape_arithmetic(self):
        model = tiny_model("lowfer")
        n_ent, n_rel, d, k = 5, 3, 4, 2
        expected = n_ent * d + 2 * n_rel * d + 2 * k * d * d
        assert model.count_parameters() == expected

    def test_ftp_adds_time_projection_and_table(self):
        model = tiny_model("ftp")
        n_ent, n_rel, d, n_t = 5, 3, 4, 4
        expected = n_ent * d + 2 * n_rel * d + 2 * d * d  # rank 1 projections
        expected += d * d        # time projection
        expected += n_t * d      # simple time table
        assert model.count_parameters() == expected

    def test_cfb_adds_chain_and_time_projection(self):
        model = tiny_model("cfb")
        n_ent, n_rel, d, k, n_t = 5, 3, 4, 2, 4
        expected = n_ent * d + 2 * n_rel * d + 2 * k * d * d
        expected += k * d * d      # time projection (dim_time == d)
        expected += (k * d) ** 2   # chain projection
        expected += n_t * d        # simple time table
        assert model.count_parameters() == expected
