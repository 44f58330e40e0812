"""Fusion algebra, 1-N scoring, and the hand-derived backward passes."""

import datetime as dt

import numpy as np
import pytest

from timekge.errors import ConfigError, ShapeError
from timekge.gradcheck import finite_diff_check
from timekge.scoring import (
    _CHUNK,
    Model,
    ModelParams,
    Variant,
    _apply_keep,
    _dropout_keep,
    init_params,
    pool_rows,
    score_all,
)
from timekge.time_encoding import SimpleTimeEncoder
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


def random_targets(rng, n=4, smoothing=0.1):
    """``(rows, objects, smoothing)`` for ``bce_loss``: each of the n x E
    candidates of a batch is marked with probability 0.3."""
    rows, objects = np.nonzero(rng.random((n, TINY["num_entities"])) < 0.3)
    return rows, objects, smoothing


def subject_patterns(rng, n):
    """Subjects for an n-row batch: all equal, mixed, and all distinct when
    there are enough entities."""
    patterns = [np.full(n, 3), rng.integers(0, TINY["num_entities"], size=n)]
    if n <= TINY["num_entities"]:
        patterns.append(rng.permutation(TINY["num_entities"])[:n])
    return patterns


def run_backward(model, cache, dlogits):
    """``model.backward`` on the batch's fields, with copies of the arrays it
    writes over, so that ``cache`` reads the same afterwards."""
    inputs = {**vars(cache), "dlogits": dlogits}
    for name in ("b", "c", "w"):
        if inputs[name] is not None:
            inputs[name] = inputs[name].copy()
    return model.backward(inputs)


def scaled_keep(keep, rate):
    """A bool dropout keep-mask as inverted-dropout factors: 0 or 1/(1-rate)."""
    return keep * (1.0 / (1.0 - rate))


def fuse_one(variant, rank, subj, rel, time=None, **tables):
    """``Model.fuse`` for one query on one-row tables built from its rows."""
    subj, rel = np.atleast_2d(subj, rel)
    encoder = None if time is None else SimpleTimeEncoder(np.atleast_2d(time))
    params = ModelParams(Variant(variant), rank, subj, rel, encoder=encoder, **tables)
    index = np.arange(1)
    return Model(params).fuse(index, index, None if time is None else index).g[0]


class TestFusionExamples:
    def test_lowfer_identity_projections(self):
        g = fuse_one("lowfer", 1, [1.0, 2.0], [3.0, 4.0], subject_proj=np.eye(2),
                     relation_proj=np.eye(2))
        np.testing.assert_array_equal(g, [3.0, 8.0])

    def test_lowfer_zero_relation(self):
        rng = np.random.default_rng(0)
        g = fuse_one("lowfer", 2, rng.standard_normal(3), np.zeros(3),
                     subject_proj=rng.standard_normal((3, 6)),
                     relation_proj=rng.standard_normal((3, 6)))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_lowfer_matches_kernel_composition(self):
        rng = np.random.default_rng(1)
        subj, rel = rng.standard_normal((2, 3))
        sp, rp = rng.standard_normal((2, 3, 6))
        g = fuse_one("lowfer", 2, subj, rel, subject_proj=sp, relation_proj=rp)
        reference = ((subj @ sp) * (rel @ rp)).reshape(-1, 2).sum(-1)
        np.testing.assert_allclose(g, reference, rtol=1e-14)

    def test_ftp_hand_values(self):
        g = fuse_one("ftp", 1, [1.0, 2.0], [3.0, 4.0], [5.0, 6.0], subject_proj=np.eye(2),
                     relation_proj=np.eye(2), time_proj=np.eye(2))
        np.testing.assert_array_equal(g, [15.0, 48.0])

    def test_ftp_zero_coordinate_annihilates(self):
        rng = np.random.default_rng(2)
        sp, rp, tp = rng.standard_normal((3, 2, 2))
        rel = rng.standard_normal(2)
        time = rng.standard_normal(2)
        subj = np.zeros(2)  # zero subject projection coordinate-wise
        g = fuse_one("ftp", 1, subj, rel, time, subject_proj=sp, relation_proj=rp,
                     time_proj=tp)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_cfb_zero_time(self):
        rng = np.random.default_rng(3)
        g = fuse_one("cfb", 2, rng.standard_normal(2), rng.standard_normal(2), np.zeros(2),
                     subject_proj=rng.standard_normal((2, 4)),
                     relation_proj=rng.standard_normal((2, 4)),
                     time_proj=rng.standard_normal((2, 4)),
                     chain_proj=rng.standard_normal((4, 4)))
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_cfb_identity_chain_is_triple_hadamard(self):
        rng = np.random.default_rng(4)
        subj, rel, time = rng.standard_normal((3, 3))
        sp, rp, tp = rng.standard_normal((3, 3, 6))
        g = fuse_one("cfb", 2, subj, rel, time, subject_proj=sp, relation_proj=rp,
                     time_proj=tp, chain_proj=np.eye(6))
        reference = ((subj @ sp) * (rel @ rp) * (time @ tp)).reshape(-1, 2).sum(-1)
        np.testing.assert_allclose(g, reference, rtol=1e-14)


class TestSubsumption:
    """The reduction chain between variants, at double-precision exactness."""

    def test_tnt_with_zero_static_equals_t(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            subj, rel, time = rng.standard_normal((3, 4))
            sp, rp = rng.standard_normal((2, 4, 8))
            left = fuse_one("tnt", 2, subj, rel, time, relation_static=np.zeros((1, 4)),
                            subject_proj=sp, relation_proj=rp)
            right = fuse_one("t", 2, subj, rel, time, subject_proj=sp, relation_proj=rp)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_t_with_unit_time_equals_lowfer(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            subj, rel = rng.standard_normal((2, 4))
            sp, rp = rng.standard_normal((2, 4, 8))
            left = fuse_one("t", 2, subj, rel, np.ones(4), subject_proj=sp, relation_proj=rp)
            right = fuse_one("lowfer", 2, subj, rel, subject_proj=sp, relation_proj=rp)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_cfb_identity_chain_rank_one_equals_ftp(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            subj, rel, time = rng.standard_normal((3, 4))
            sp, rp, tp = rng.standard_normal((3, 4, 4))
            projections = dict(subject_proj=sp, relation_proj=rp, time_proj=tp)
            left = fuse_one("cfb", 1, subj, rel, time, chain_proj=np.eye(4), **projections)
            right = fuse_one("ftp", 1, subj, rel, time, **projections)
            np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_tnt_with_zero_temporal_reduces_to_static_lowfer(self):
        rng = np.random.default_rng(8)
        subj, rel_static, time = rng.standard_normal((3, 4))
        sp, rp = rng.standard_normal((2, 4, 8))
        left = fuse_one("tnt", 2, subj, np.zeros(4), time, relation_static=rel_static[None],
                        subject_proj=sp, relation_proj=rp)
        right = fuse_one("lowfer", 2, subj, rel_static, subject_proj=sp, relation_proj=rp)
        np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_t_equals_lowfer_on_premodulated_relation(self):
        rng = np.random.default_rng(9)
        subj, rel, time = rng.standard_normal((3, 4))
        sp, rp = rng.standard_normal((2, 4, 8))
        left = fuse_one("t", 2, subj, rel, time, subject_proj=sp, relation_proj=rp)
        right = fuse_one("lowfer", 2, subj, rel * time, subject_proj=sp, relation_proj=rp)
        np.testing.assert_allclose(left, right, rtol=1e-15)


class TestScoreAll:
    # each identity holds for a one-row batch and for a batch of several rows
    BATCHES = (1, 3)

    def test_zero_query_gives_zero_logits(self):
        table = np.random.default_rng(0).standard_normal((6, 3))
        for n in self.BATCHES:
            np.testing.assert_array_equal(score_all(np.zeros((n, 3)), table), np.zeros((n, 6)))

    def test_identity_table_returns_query(self):
        g = np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.25], [1.0, 1.0, 1.0]])
        for n in self.BATCHES:
            np.testing.assert_array_equal(score_all(g[:n], np.eye(3)), g[:n])

    def test_single_entity(self):
        g = np.array([[1.0, 2.0], [0.0, -1.0], [2.0, 0.5]])
        table = np.array([[3.0, 4.0]])
        for n in self.BATCHES:
            np.testing.assert_allclose(score_all(g[:n], table), [[11.0], [-4.0], [8.0]][:n])

    def test_linear_in_query(self):
        rng = np.random.default_rng(1)
        table = rng.standard_normal((5, 4))
        for n in self.BATCHES:
            g1, g2 = rng.standard_normal((2, n, 4))
            np.testing.assert_allclose(
                score_all(2.0 * g1 + g2, table),
                2.0 * score_all(g1, table) + score_all(g2, table), rtol=1e-12)

    def test_linear_in_entity_rows(self):
        rng = np.random.default_rng(2)
        t1, t2 = rng.standard_normal((2, 5, 4))
        for n in self.BATCHES:
            g = rng.standard_normal((n, 4))
            np.testing.assert_allclose(
                score_all(g, 0.5 * t1 + 2.0 * t2),
                0.5 * score_all(g, t1) + 2.0 * score_all(g, t2), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            score_all(np.zeros((2, 3)), np.zeros((5, 4)))

    def test_vector_query_refused(self):
        # a single query is a (1, d) batch
        with pytest.raises(ShapeError):
            score_all(np.zeros(3), np.zeros((5, 3)))


class TestModelForward:
    @pytest.mark.parametrize("variant", ["lowfer", "t", "tnt", "cfb", "ftp"])
    def test_matches_inline_variant_rules(self, variant):
        # each rule of the module docstring, written out on the batch's rows
        model = tiny_model(variant, seed=11)
        p = model.params
        s, pr, t = random_batch(np.random.default_rng(12))
        cache = model.fuse(s, pr, t if variant != "lowfer" else None)
        rel = p.relation[pr]
        time = None if variant == "lowfer" else p.encoder.encode_batch(t)
        if variant == "t":
            rel = rel * time
        elif variant == "tnt":
            rel = rel * time + p.relation_static[pr]
        right = rel @ p.relation_proj
        if variant in ("cfb", "ftp"):
            right = right * (time @ p.time_proj)
        if variant == "cfb":
            right = right @ p.chain_proj
        expected = ((p.entity[s] @ p.subject_proj) * right).reshape(len(s), -1, p.rank).sum(-1)
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
        assert eval_cache.keep_input is None and eval_cache.keep_hidden is None
        train_cache = model.fuse(s, pr, t, training=True, dropout_input=0.5,
                                 dropout_hidden=0.5, rng=np.random.default_rng(0))
        assert train_cache.keep_input is not None and train_cache.keep_hidden is not None
        assert train_cache.keep_input.dtype == np.bool_


    def test_dropout_mask_is_the_scaled_uniform_draw(self):
        mask = np.ones((6, 5))
        _apply_keep(mask, _dropout_keep(mask.shape, 0.3, True, np.random.default_rng(21)), 0.3)
        expected = (np.random.default_rng(21).random((6, 5)) >= 0.3) / (1.0 - 0.3)
        assert mask.dtype == np.float64
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("rate", [-0.5, 1.0])
    def test_out_of_range_dropout_rejected(self, rate, training):
        with pytest.raises(ConfigError):
            _dropout_keep((2, 3), rate, training, np.random.default_rng(0))
        model = tiny_model("tnt", seed=15)
        s, pr, t = random_batch(np.random.default_rng(16))
        with pytest.raises(ConfigError):
            model.fuse(s, pr, t, training=training, dropout_input=rate,
                       rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            model.fuse(s, pr, t, training=training, dropout_hidden=rate,
                       rng=np.random.default_rng(0))


class TestDropoutKeepMask:
    # below one chunk, exactly one, not a multiple of it, and two chunks
    @pytest.mark.parametrize("shape", [(7, 11), (_CHUNK,), (3, _CHUNK // 2 + 5), (2, _CHUNK)])
    def test_chunked_draw_is_the_one_uniform_draw(self, shape):
        rate = 0.3
        rng, reference = np.random.default_rng(60), np.random.default_rng(60)
        keep = _dropout_keep(shape, rate, True, rng)
        assert keep.dtype == np.bool_ and keep.shape == shape
        expected = (reference.random(shape) >= rate) / (1 - rate)
        assert np.array_equal(keep * (1.0 / (1.0 - rate)), expected)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("training, rate", [(False, 0.3), (True, 0.0)])
    def test_nothing_dropped_draws_nothing(self, training, rate):
        rng = np.random.default_rng(61)
        assert _dropout_keep((4, 5), rate, training, rng) is None
        assert rng.random() == np.random.default_rng(61).random()

    @pytest.mark.parametrize("training", [True, False])
    def test_negative_rate_refused(self, training):
        with pytest.raises(ConfigError):
            _dropout_keep((4, 5), -0.1, training, np.random.default_rng(0))


class TestRowBlockedForward:
    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    @pytest.mark.parametrize("encoder", ["ste", "cte"])
    def test_matches_whole_batch_product_and_pool(self, variant, encoder):
        model = tiny_model(variant, encoder=encoder, seed=50)
        p = model.params
        block = max(1, _CHUNK // (p.rank * p.dim_entity))
        rng = np.random.default_rng(51)
        for n in (1, TINY["num_entities"], block - 1, block, block + 1):
            _, pr, t = random_batch(rng, n=n)
            for s in subject_patterns(rng, n):
                cache = model.fuse(s, pr, t, training=True, dropout_input=0.3,
                                   dropout_hidden=0.4, rng=rng)
                # each distinct subject is projected once, with the rows of
                # the whole-batch product
                assert cache.a_unique.shape[0] == np.unique(s).size
                a = cache.a_unique[cache.a_index]
                assert np.array_equal(a, cache.subj @ p.subject_proj), (n, s)
                right = cache.b if cache.w is None else cache.w
                expected = pool_rows(a * right * scaled_keep(cache.keep_input, 0.3),
                                     p.rank) * scaled_keep(cache.keep_hidden, 0.4)
                assert np.array_equal(cache.g, expected), (n, s)


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
        targets = random_targets(rng)

        def loss():
            logits, _ = model.forward(s, pr, t)
            return bce_loss(logits, *targets)[0]

        logits, cache = model.forward(s, pr, t)
        _, dlogits = bce_loss(logits, *targets)
        grads = run_backward(model, cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=24, seed=seed)
        assert report.max_rel_error < 1e-4, report

    @pytest.mark.parametrize("variant", ["t", "tnt", "cfb"])
    def test_gradients_with_cyclic_encoder(self, variant):
        model = tiny_model(variant, encoder="cte", seed=3)
        rng = np.random.default_rng(30)
        s, pr, t = random_batch(rng)
        targets = random_targets(rng)

        def loss():
            logits, _ = model.forward(s, pr, t)
            return bce_loss(logits, *targets)[0]

        logits, cache = model.forward(s, pr, t)
        _, dlogits = bce_loss(logits, *targets)
        grads = run_backward(model, cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=16, seed=31)
        assert report.max_rel_error < 1e-4, report

    def test_gradients_through_dropout_masks(self):
        # a regenerated generator yields the same masks on every probe
        model = tiny_model("cfb", seed=4)
        rng = np.random.default_rng(40)
        s, pr, t = random_batch(rng)
        targets = random_targets(rng)

        def forward():
            return model.forward(s, pr, t, training=True, dropout_input=0.3,
                                 dropout_hidden=0.3, rng=np.random.default_rng(99))

        def loss():
            logits, _ = forward()
            return bce_loss(logits, *targets)[0]

        logits, cache = forward()
        _, dlogits = bce_loss(logits, *targets)
        grads = run_backward(model, cache, dlogits)
        report = finite_diff_check(loss, model.params.tensors(), grads,
                                   epsilon=1e-5, max_coords=16, seed=41)
        assert report.max_rel_error < 1e-4, report

    @staticmethod
    def reference_backward(model, cache, dlogits):
        """Unfused backward pass: every product a new array, every gradient
        accumulated into zeros."""
        p = model.params
        grads = {name: np.zeros_like(t) for name, t in p.tensors().items()}
        dg = dlogits @ p.entity
        grads["entity"] += dlogits.T @ cache.g
        a = cache.a_unique[cache.a_index]
        dg = dg * scaled_keep(cache.keep_hidden, cache.dropout_hidden)
        dh = np.repeat(dg, p.rank, axis=1) * scaled_keep(cache.keep_input, cache.dropout_input)
        if p.variant in (Variant.CFB, Variant.FTP):
            da, dw = dh * cache.w, dh * a
            if p.variant is Variant.CFB:
                grads["chain_proj"] += cache.inner.T @ dw
                dinner = dw @ p.chain_proj.T
            else:
                dinner = dw
            db, dc = dinner * cache.c, dinner * cache.b
            grads["time_proj"] += cache.time.T @ dc
            dtime = dc @ p.time_proj.T
        else:
            da, db, dtime = dh * cache.b, dh * a, None
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
        _, pr, t = random_batch(rng, n=TINY["num_entities"])
        for s in subject_patterns(rng, TINY["num_entities"]):
            logits, cache = model.forward(s, pr, t, training=True, dropout_input=0.3,
                                          dropout_hidden=0.4, rng=rng)
            dlogits = rng.standard_normal(logits.shape)
            kept = {name: getattr(cache, name)
                    for name in ("a_unique", "a_index", "b", "g", "keep_input", "keep_hidden")}
            kept = {name: value.copy() for name, value in kept.items()}
            grads = run_backward(model, cache, dlogits)
            expected = self.reference_backward(model, cache, dlogits)
            assert list(grads) == list(expected)
            for name, grad in grads.items():
                assert np.array_equal(grad, expected[name]), (name, s)
            for name, value in kept.items():
                assert np.array_equal(getattr(cache, name), value), (name, s)

    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model("cfb", seed=5)
        rng = np.random.default_rng(50)
        s, pr, t = random_batch(rng)
        _, cache = model.forward(s, pr, t)
        grads = run_backward(model, cache, np.zeros((4, TINY["num_entities"])))
        assert all(not g.any() for g in grads.values())

    def test_untouched_tensors_get_zero_gradient(self):
        model = tiny_model("lowfer", seed=6)
        dlogits = np.random.default_rng(60).standard_normal((2, TINY["num_entities"]))
        _, cache = model.forward([0, 3], [1, 1])
        grads = run_backward(model, cache, dlogits)
        assert set(grads) == {"entity", "relation", "subject_proj", "relation_proj"}
        untouched = np.arange(2 * TINY["num_relations"]) != 1
        assert not grads["relation"][untouched].any()
        assert grads["relation"][1].any()

    def test_batch_size_mismatch_rejected(self):
        model = tiny_model("t", seed=7)
        rng = np.random.default_rng(70)
        s, pr, t = random_batch(rng)
        _, cache = model.forward(s, pr, t)
        with pytest.raises(ShapeError):
            run_backward(model, cache, np.zeros((3, TINY["num_entities"])))

    def test_repeated_entity_accumulates_both_roles(self):
        model = tiny_model("t", seed=8)
        rng = np.random.default_rng(80)
        dlogits = rng.standard_normal((2, TINY["num_entities"]))
        s = np.array([2, 2])
        pr = np.array([0, 4])
        t = np.array([1, 3])
        _, cache = model.forward(s, pr, t)
        grads = run_backward(model, cache, dlogits)
        total = np.zeros_like(model.params.entity)
        for i in range(2):
            _, single = model.forward(s[i:i+1], pr[i:i+1], t[i:i+1])
            g_i = run_backward(model, single, dlogits[i:i+1])
            total += g_i["entity"]
        np.testing.assert_allclose(grads["entity"], total, rtol=1e-12, atol=1e-14)

    def test_batch_permutation_leaves_gradients_unchanged(self):
        model = tiny_model("tnt", seed=9)
        rng = np.random.default_rng(90)
        s, pr, t = random_batch(rng, n=6)
        dlogits = rng.standard_normal((6, TINY["num_entities"]))
        _, cache = model.forward(s, pr, t)
        grads = run_backward(model, cache, dlogits)
        perm = rng.permutation(6)
        _, cache_p = model.forward(s[perm], pr[perm], t[perm])
        grads_p = run_backward(model, cache_p, dlogits[perm])
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
        grads_t = run_backward(t_model, cache_t, dlogits)
        _, cache_tnt = tnt_model.forward(s, pr, t)
        grads_tnt = run_backward(tnt_model, cache_tnt, dlogits)

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
        assert model.params.count_parameters() == expected

    def test_ftp_adds_time_projection_and_table(self):
        model = tiny_model("ftp")
        n_ent, n_rel, d, n_t = 5, 3, 4, 4
        expected = n_ent * d + 2 * n_rel * d + 2 * d * d  # rank 1 projections
        expected += d * d        # time projection
        expected += n_t * d      # simple time table
        assert model.params.count_parameters() == expected

    def test_cfb_adds_chain_and_time_projection(self):
        model = tiny_model("cfb")
        n_ent, n_rel, d, k, n_t = 5, 3, 4, 2, 4
        expected = n_ent * d + 2 * n_rel * d + 2 * k * d * d
        expected += k * d * d      # time projection (dim_time == d)
        expected += (k * d) ** 2   # chain projection
        expected += n_t * d        # simple time table
        assert model.params.count_parameters() == expected
