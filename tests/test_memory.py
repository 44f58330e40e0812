"""Peak memory of the 1-N training step, the ranking chunk and checkpoint loading.

numpy reports its array allocations to ``tracemalloc``, so traced peaks
are deterministic byte counts: no wall clock and no RSS is read.
"""

import tracemalloc

import numpy as np
import pytest

from timekge import datasets, evaluation, scoring, training
from timekge.kernels import _CHUNK

E, R, T, D, K, B = 300, 8, 12, 16, 64, 500
W = K * D


def setup(variant):
    rng = np.random.default_rng(0)
    facts = np.stack([rng.integers(0, E, 6000), rng.integers(0, R, 6000),
                      rng.integers(0, E, 6000), rng.integers(0, T, 6000)], axis=1)
    params = scoring.init_params(variant, E, R, K, D, encoder="ste", num_timestamps=T,
                                 rng=np.random.default_rng(1))
    return facts, scoring.Model(params)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def train_peaks(variant) -> tuple[list[int], int, scoring.Model]:
    """Traced peaks of train_epoch over each of three batches alone and over
    all three in one epoch.

    A batch's peak still depends a little on its distinct subjects (their
    gathered embedding rows), so each batch alone is the one the epoch
    forms: the epoch's shuffle is drawn from the same seed here.
    """
    facts, model = setup(variant)
    targets = datasets.group_targets(facts)
    keys = targets.key_array[:3 * B]
    adam = training.AdamState.for_params(model.params.tensors())
    config = training.TrainConfig(variant=variant, dim_entity=D, rank=K, batch_size=B)

    def run(epoch_keys):
        training.train_epoch(model, epoch_keys, targets, config, adam,
                             np.random.default_rng(2), 0.01)

    order = np.random.default_rng(2).permutation(keys.shape[0])
    batches = [keys[order[start:start + B]] for start in range(0, keys.shape[0], B)]
    run(batches[0])  # warm-up
    alone = [traced_peak(lambda: run(batch)) for batch in batches]
    return alone, traced_peak(lambda: run(keys)), model


@pytest.mark.parametrize("variant", ["tnt", "cfb"])
def test_no_batch_survives_into_the_next(variant):
    alone, together, _ = train_peaks(variant)
    assert together == pytest.approx(max(alone), rel=0.01)


def passthrough(fn):
    """Wrap ``fn`` as perfbench's tracer does: the wrapper holds the call's
    arguments until the call returns."""
    def traced(*args, **kwargs):
        return fn(*args, **kwargs)
    return traced


def step_peaks(variant) -> list[int]:
    """Traced peaks of one training step, called directly and with the loss
    and backward wrapped."""
    peaks = []
    for wrapped in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if wrapped:
                mp.setattr(training, "bce_loss", passthrough(training.bce_loss))
                mp.setattr(scoring.Model, "backward", passthrough(scoring.Model.backward))
            peaks.append(train_peaks(variant)[0][0])
    return peaks


def step_bound(cached: int, backward_wide: int) -> int:
    """Bytes live at a training step's peak, the larger of two live sets.

    In ``bce_loss``: the targets and the logits (the gradient goes over
    them), ``cached`` B x W arrays of the cache, its bool keep-masks, five
    B x D row arrays (subj, rel, rel_in, time, g) with four to spare, and
    the loss's three chunk buffers. In backward, which drops dlogits after
    dg, each keep-mask once applied and each cached array after its last
    read, and writes da over b or w: ``backward_wide`` B x W arrays, the
    input keep-mask, the same row arrays, and the gradients begun by then
    (entity's and the zero-filled relation tables).

    At this shape (W > 3E) backward sets the peak: dlogits or the cache
    held past the hand-off would add B x E values or more, and a fresh da
    B x W values.
    """
    loss = 8 * (2 * B * E + cached * B * W + 9 * B * D + 3 * _CHUNK) + B * W + B * D
    backward = 8 * (backward_wide * B * W + 9 * B * D + (E + 4 * R) * D) + B * W
    return max(loss, backward)


def test_training_peak_holds_only_what_backward_reads():
    # tnt caches a and b; its backward peaks holding dh, da (over b) and a
    assert max(step_peaks("tnt")) < step_bound(2, 3)


def test_cfb_step_peak_holds_only_what_backward_reads():
    # cfb caches a, b, c, inner and w; its backward peaks holding dh, da
    # (over w), a, b, c and inner
    assert max(step_peaks("cfb")) < step_bound(5, 6)


def test_cache_size_is_fixed_by_the_batch_shape():
    # a batch with one subject projects one row, yet its cache holds as many
    # bytes as a batch of 300 distinct subjects: when allocation sizes follow
    # the data, malloc's resident peak moves with the dataset
    _, model = setup("tnt")
    rng = np.random.default_rng(3)
    p_idx, t_idx = rng.integers(0, 2 * R, B), rng.integers(0, T, B)

    def held(s_idx):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cache = model.fuse(s_idx, p_idx, t_idx)
            return tracemalloc.get_traced_memory()[0] - base, cache
        finally:
            tracemalloc.stop()

    one, cache = held(np.full(B, 7))
    assert cache.a_unique.shape == (1, W)
    many, cache = held(np.arange(B) % E)
    assert cache.a_unique.shape == (E, W)
    assert one == pytest.approx(many, rel=0.01)


def chunk_bound(rows: int) -> int:
    """Bytes live while a ranking chunk of ``rows`` queries is scored: the
    forward cache's a and b, the chunk's logits and its one bool buffer, and
    twelve rows x D arrays (subj, rel, rel_in, time, g and gathers) with room
    to spare; not the full rows x W product."""
    return 8 * (2 * rows * W + rows * E + 12 * rows * D) + rows * E


def test_no_chunk_survives_into_the_next():
    facts, model = setup("tnt")
    flt = evaluation.build_filter([facts])
    queries = facts[:3 * B]
    # the chunks evaluate ranks: runs of the subject order
    order = np.argsort(queries[:, 0], kind="stable")
    chunks = [queries[order[start:start + B]] for start in range(0, queries.shape[0], B)]

    def run(quads):
        evaluation.evaluate(model, quads, flt, batch_size=B)

    run(chunks[0])  # warm-up
    alone = [traced_peak(lambda: run(chunk)) for chunk in chunks]
    assert traced_peak(lambda: run(queries)) == pytest.approx(max(alone), rel=0.01)
    assert max(alone) < chunk_bound(B)


def test_default_chunk_holds_512_queries():
    # more queries than two chunks of 1,024: the peak is one 512-query
    # chunk's live set, beside the split's subject order and ranks
    facts, model = setup("tnt")
    flt = evaluation.build_filter([facts])
    queries = facts[:2500]
    evaluation.evaluate(model, queries[:B], flt)  # warm-up
    peak = traced_peak(lambda: evaluation.evaluate(model, queries, flt))
    assert peak < chunk_bound(512) + 16 * queries.shape[0]


def test_checkpoint_load_holds_each_tensor_once(tmp_path):
    # each tensor is read straight into its array: no file-sized bytes beside it
    dataset = datasets.Dataset.from_dir(datasets.synthetic_dataset_dir())
    vocab = dataset.vocab
    params = scoring.init_params("cfb", vocab.num_entities, vocab.num_relations, 16, 64,
                                 encoder="ste", num_timestamps=vocab.num_timestamps,
                                 rng=np.random.default_rng(0))
    size = sum(t.nbytes for t in params.tensors().values())
    path = tmp_path / "checkpoint"
    training.save_checkpoint(path, params, vocab_hashes=vocab.hashes(), epoch=0, seed=0,
                             num_timestamps=vocab.num_timestamps)
    training.load_checkpoint(path, dataset)  # warm-up
    loaded = []
    peak = traced_peak(lambda: loaded.append(training.load_checkpoint(path, dataset)))
    assert size > 8 << 20 and peak < size + (1 << 20)
