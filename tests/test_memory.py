"""Peak memory of the 1-N training step and the ranking chunk.

numpy reports its array allocations to ``tracemalloc``, so traced peaks
are deterministic byte counts: no wall clock and no RSS is read.
"""

import tracemalloc

import numpy as np
import pytest

from timekge import datasets, evaluation, scoring, training

E, R, T, D, K, B = 300, 8, 12, 16, 32, 500
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


def train_peaks(variant) -> tuple[int, int, scoring.Model]:
    """Traced peaks of train_epoch over one batch and over three."""
    facts, model = setup(variant)
    targets = datasets.group_targets(facts)
    keys = targets.key_array
    adam = training.AdamState.for_params(model.params.tensors())
    config = training.TrainConfig(variant=variant, dim_entity=D, rank=K, batch_size=B)
    rng = np.random.default_rng(2)

    def run(batches):
        training.train_epoch(model, keys[:batches * B], targets, config, adam, rng, 0.01)

    run(1)  # warm-up
    return traced_peak(lambda: run(1)), traced_peak(lambda: run(3)), model


@pytest.mark.parametrize("variant", ["tnt", "cfb"])
def test_no_batch_survives_into_the_next(variant):
    one, three, _ = train_peaks(variant)
    assert three == pytest.approx(one, rel=0.01)


def test_training_peak_holds_only_what_backward_reads():
    # at the backward peak: dlogits, the cached a and b, the bool input
    # keep-mask, dh and da, the gradients, and seven B x D row arrays (subj,
    # rel, rel_in, time, g, dg, drel_in) with two to spare; live targets or
    # logits would add 2 x B x E values, a float mask 7 x B x W bytes, and dh
    # kept past drel_in the subject-projection gradient and three B x D arrays
    one, _, model = train_peaks("tnt")
    grads = sum(t.nbytes for t in model.params.tensors().values())
    bound = 8 * (B * E + 4 * B * W + 9 * B * D) + B * W + grads
    assert one < bound


def test_no_chunk_survives_into_the_next():
    facts, model = setup("tnt")
    flt = evaluation.build_filter([facts])

    def run(chunks):
        evaluation.evaluate(model, facts[:chunks * B], flt, batch_size=B)

    run(1)  # warm-up
    one, three = traced_peak(lambda: run(1)), traced_peak(lambda: run(3))
    assert three == pytest.approx(one, rel=0.01)
    # the cached a and b and one chunk of logits, not the full B x W product
    assert one < 8 * (2 * B * W + B * E + 12 * B * D) + 2 * B * E
