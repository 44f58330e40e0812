"""Acceptance suite: one test per release criterion, every tolerance pinned.

Each criterion prints a single ``criterion N: PASS/FAIL/SKIP`` line
(visible under ``pytest -s`` or on failure). Criteria 5 and the ICEWS
branch of criterion 7 engage automatically when the ICEWS datasets are
present under ``data/icews14`` / ``data/icews05-15`` (or a directory
named by ``TIMEKGE_DATA_DIR``); otherwise they skip or fall back to the
bundled synthetic dataset.
"""

import datetime as dt
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from timekge.checkpoint import load_checkpoint, save_checkpoint
from timekge.cli import main as cli_main
from timekge.datasets import (
    Dataset,
    QuadrupleColumns,
    augment_reciprocal,
    build_vocab,
    index_quadruples,
    parse_quadruples,
    resample_time,
    synthetic_dataset_dir,
)
from timekge.evaluation import build_filter, evaluate
from timekge.gradcheck import finite_diff_check
from timekge.scoring import Model, ModelParams, Variant, init_params
from timekge.time_encoding import (
    COMPONENTS,
    SimpleTimeEncoder,
    cycle_cardinalities,
    decompose_date,
)
from timekge.training import TrainConfig, Trainer, bce_loss

DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

# hyperparameters for the desk-scale runs (criteria 7-9); dims, epochs and
# seed are fixed by the criterion, the rest suit the small key count
DESK = dict(encoder="ste", dim_entity=64, rank=8, epochs=50, seed=7,
            batch_size=16)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def data_root() -> Path:
    override = os.environ.get("TIMEKGE_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[1] / "data"


def icews_dir(name: str) -> Path | None:
    candidate = data_root() / name
    return candidate if candidate.is_dir() else None


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = {}
    for variant in ("lowfer", "t", "tnt", "cfb", "ftp"):
        rng = np.random.default_rng(17)
        rank = 1 if variant == "ftp" else 2
        params = init_params(variant, num_entities=5, num_relations=3,
                            rank=rank, dim_entity=4, encoder="ste",
                            num_timestamps=4, rng=rng)
        for tensor in params.tensors().values():
            tensor[...] = rng.standard_normal(tensor.shape)
        model = Model(params)
        s = rng.integers(0, 5, size=4)
        p = rng.integers(0, 6, size=4)
        t = rng.integers(0, 4, size=4)
        # label-smoothed targets as training builds them: marks and a smoothing
        rows, objects = np.nonzero(rng.random((4, 5)) < 0.3)

        def loss():
            logits, _ = model.forward(s, p, t)
            return bce_loss(logits, rows, objects, 0.1)[0]

        logits, cache = model.forward(s, p, t)
        _, dlogits = bce_loss(logits, rows, objects, 0.1)
        grads = model.backward({**vars(cache), "dlogits": dlogits})
        rep = finite_diff_check(loss, params.tensors(), grads,
                                epsilon=1e-5, max_coords=256, seed=17)
        worst[variant] = rep.max_rel_error
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) < 1e-4 and elapsed < 10.0
    report(1, ok,
           f"max rel err {max(worst.values()):.2e} over {list(worst)} "
           f"in {elapsed:.1f}s (< 1e-4, < 10s)")


# ---------------------------------------------------------------------------
# criterion 2: subsumption equalities
# ---------------------------------------------------------------------------

def test_criterion_2_subsumption_equalities():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0

    def rel_gap(a, b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        return float(np.max(np.abs(a - b) / denom))

    def fuse(variant, rank, time=None, **tables):
        """The model's forward pass for one query, on one-row tables of the draw."""
        encoder = None if time is None else SimpleTimeEncoder(time[None])
        params = ModelParams(Variant(variant), rank, subj[None], rel[None],
                             encoder=encoder, **tables)
        index = np.arange(1)
        return Model(params).fuse(index, index, None if time is None else index).g

    for _ in range(100):
        subj, rel, timev = rng.standard_normal((3, 4))
        sp, rp = rng.standard_normal((2, 4, 8))
        tp1, rp1, sp1 = rng.standard_normal((3, 4, 4))
        bilinear = dict(subject_proj=sp, relation_proj=rp)
        trilinear = dict(subject_proj=sp1, relation_proj=rp1, time_proj=tp1)

        tnt = fuse("tnt", 2, timev, relation_static=np.zeros((1, 4)), **bilinear)
        t_only = fuse("t", 2, timev, **bilinear)
        worst = max(worst, rel_gap(tnt, t_only))

        t_unit = fuse("t", 2, np.ones(4), **bilinear)
        static = fuse("lowfer", 2, **bilinear)
        worst = max(worst, rel_gap(t_unit, static))

        chained = fuse("cfb", 1, timev, chain_proj=np.eye(4), **trilinear)
        ftp = fuse("ftp", 1, timev, **trilinear)
        worst = max(worst, rel_gap(chained, ftp))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-15 and elapsed < 5.0
    report(2, ok, f"max relative gap {worst:.2e} over 100 instances "
                  f"in {elapsed:.1f}s (<= 1e-15, < 5s)")


# ---------------------------------------------------------------------------
# criterion 3: cycle-decomposition structural suite
# ---------------------------------------------------------------------------

def test_criterion_3_cycle_decomposition_structure():
    started = time.perf_counter()
    cards = cycle_cardinalities()
    assert len(COMPONENTS) == 14
    assert cards == {
        "day_of_week": 7, "day_of_month": 31, "week_of_month": 5,
        "day_of_season": 92, "week_of_season": 14, "month_of_season": 3,
        "day_of_year": 366, "week_of_year": 53, "month_of_year": 12,
        "season_of_year": 4, "year_units": 10, "year_decades": 10,
        "year_centuries": 10, "year_millennia": 10,
    }
    day = dt.date(1995, 1, 1)
    end = dt.date(2030, 12, 31)
    checked = 0
    while day <= end:
        c = decompose_date(day)
        # (i) weekday is 7-periodic
        assert c.day_of_week == decompose_date(day + dt.timedelta(days=7)).day_of_week
        # (ii) day of year decomposes over months
        months = DAYS_IN_MONTH.copy()
        if day.year % 4 == 0 and (day.year % 100 != 0 or day.year % 400 == 0):
            months[1] = 29
        assert c.day_of_year == sum(months[:c.month_of_year]) + c.day_of_month
        # (iii) weeks floor their day counters
        assert c.week_of_year == c.day_of_year // 7
        assert c.week_of_month == c.day_of_month // 7
        assert c.week_of_season == c.day_of_season // 7
        # (iv) seasons are month quarters
        assert c.season_of_year == c.month_of_year // 3
        assert c.month_of_season == c.month_of_year % 3
        # (v) year digits reassemble the year
        assert (c.year_millennia * 1000 + c.year_centuries * 100 +
                c.year_decades * 10 + c.year_units) == day.year
        for comp, idx in zip(COMPONENTS, c):
            assert 0 <= idx < cards[comp]
        checked += 1
        day += dt.timedelta(days=1)
    elapsed = time.perf_counter() - started
    ok = checked == 13149 and elapsed < 5.0
    report(3, ok, f"{checked} dates 1995-2030 satisfy all five identities "
                  f"in {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 4: ranking oracle equivalence
# ---------------------------------------------------------------------------

def brute_force_reference(model, quads, filter_sets, mode):
    """Independent quadratic-time ranking: explicit loops per candidate."""
    entity = model.params.entity
    num_entities = entity.shape[0]
    mrr = 0.0
    hits = {1: 0, 3: 0, 10: 0}
    for s, p, o, t in quads:
        g = model.fuse(np.array([s]), np.array([p]), np.array([t])).g[0]
        scores = [sum(g[j] * entity[cand, j] for j in range(g.shape[0]))
                  for cand in range(num_entities)]
        excluded = set()
        if mode == "filtered":
            excluded = {int(x) for x in filter_sets[(int(s), int(p), int(t))]}
            excluded.discard(int(o))
        greater = ties = 0
        for cand in range(num_entities):
            if cand == o or cand in excluded:
                continue
            if scores[cand] > scores[o]:
                greater += 1
            elif scores[cand] == scores[o]:
                ties += 1
        rank = 1.0 + greater + 0.5 * ties
        mrr += 1.0 / rank
        for n in hits:
            hits[n] += rank <= n
    n_q = quads.shape[0]
    return {"mrr": mrr / n_q, "hits1": hits[1] / n_q, "hits3": hits[3] / n_q,
            "hits10": hits[10] / n_q}


def test_criterion_4_ranking_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(29)
    facts = np.unique(np.stack([
        rng.integers(0, 50, size=520), rng.integers(0, 5, size=520),
        rng.integers(0, 50, size=520), rng.integers(0, 10, size=520),
    ], axis=1), axis=0)[:500]
    assert facts.shape[0] == 500
    quads = augment_reciprocal(facts, 5)
    flt = build_filter([quads])
    params = init_params("t", num_entities=50, num_relations=5, rank=2,
                         dim_entity=8, encoder="ste", num_timestamps=10,
                         rng=np.random.default_rng(31))
    for tensor in params.tensors().values():
        tensor[...] = rng.standard_normal(tensor.shape)
    model = Model(params)
    gap = 0.0
    for mode in ("filtered", "raw"):
        ours = evaluate(model, quads, flt, mode=mode).to_dict()
        reference = brute_force_reference(model, quads, flt, mode)
        for key, value in reference.items():
            gap = max(gap, abs(ours[key] - value))
    elapsed = time.perf_counter() - started
    ok = gap < 1e-12 and elapsed < 5.0
    report(4, ok, f"max |metric gap| {gap:.2e} vs brute force on 1000 queries "
                  f"in {elapsed:.1f}s (< 1e-12, < 5s)")


# ---------------------------------------------------------------------------
# criterion 5: published dataset statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("icews14", (7129, 230, 365)),
    ("icews05-15", (10488, 251, 4017)),
])
def test_criterion_5_dataset_statistics(name, expected, capsys):
    directory = icews_dir(name)
    if directory is None:
        print(f"criterion 5: SKIP - {name} not present under {data_root()}")
        pytest.skip(f"{name} dataset not available")
    assert cli_main(["stats", "--dataset", str(directory)]) == 0
    stats = json.loads(capsys.readouterr().out)
    got = (stats["num_entities"], stats["num_relations"], stats["num_timestamps"])
    report(5, got == expected, f"{name}: (E, R, T) = {got}, expected {expected}")


# ---------------------------------------------------------------------------
# criterion 6: time-sampling degeneracy
# ---------------------------------------------------------------------------

def test_criterion_6_time_sampling_degeneracy():
    rng = np.random.default_rng(37)
    quads = np.stack([
        rng.integers(0, 100, size=1000), rng.integers(0, 10, size=1000),
        rng.integers(0, 100, size=1000), np.arange(1000) % 365,
    ], axis=1)
    static, count = resample_time(quads, 1024, 365)
    identity, count_id = resample_time(quads, 1, 365)
    ok = (count == 1 and (static[:, 3] == 0).all()
          and count_id == 365 and np.array_equal(identity, quads))
    report(6, ok, f"rate 1024 collapses 365 timestamps to {count}; "
                  f"rate 1 is the identity")


# ---------------------------------------------------------------------------
# criteria 7-9: desk-scale learning, determinism, checkpoint round trip
# ---------------------------------------------------------------------------

def desk_scale_dataset() -> tuple[Dataset, str]:
    """The fixed 5000-quadruple ICEWS14 subset, or the bundled synthetic set."""
    directory = icews_dir("icews14")
    if directory is None:
        return Dataset.from_dir(synthetic_dataset_dir()), "synthetic"
    raw = {}
    sizes = {"train": 5000, "valid": 500, "test": 500}
    for split, limit in sizes.items():
        path = next(p for p in (directory / split, directory / f"{split}.txt")
                    if p.is_file())
        with open(path, "rb") as fh:
            facts = parse_quadruples(fh, origin=str(path))
        raw[split] = QuadrupleColumns(facts.subjects[:limit], facts.predicates[:limit],
                                      facts.objects[:limit], facts.dates[:limit])
    vocab = build_vocab(raw["train"], raw["valid"], raw["test"])
    return Dataset(
        vocab=vocab,
        train=index_quadruples(raw["train"], vocab),
        valid=index_quadruples(raw["valid"], vocab),
        test=index_quadruples(raw["test"], vocab),
    ), "icews14-5000"


def run_desk_scale(variant: str, dataset: Dataset):
    trainer = Trainer(dataset, TrainConfig(variant=variant, **DESK))
    history = trainer.run()
    metrics = trainer.evaluate_split("valid", mode="filtered")
    return trainer, history, metrics


@pytest.fixture(scope="module")
def desk_scale_runs():
    dataset, source = desk_scale_dataset()
    started = time.perf_counter()
    runs = {variant: run_desk_scale(variant, dataset)
            for variant in ("tnt", "cfb")}
    return {"dataset": dataset, "source": source, "runs": runs,
            "seconds": time.perf_counter() - started}


def test_criterion_7_desk_scale_learning_signal(desk_scale_runs):
    dataset = desk_scale_runs["dataset"]
    baseline = 1.0 / dataset.vocab.num_entities
    _, tnt_history, tnt_metrics = desk_scale_runs["runs"]["tnt"]
    _, cfb_history, cfb_metrics = desk_scale_runs["runs"]["cfb"]
    elapsed = desk_scale_runs["seconds"]
    ok = (tnt_metrics.mrr > 10 * baseline and cfb_metrics.mrr > 10 * baseline
          and cfb_history[-1].loss <= tnt_history[-1].loss + 0.05
          and elapsed < 1200.0)
    report(7, ok,
           f"{desk_scale_runs['source']}: val MRR tnt={tnt_metrics.mrr:.3f} "
           f"cfb={cfb_metrics.mrr:.3f} (> {10 * baseline:.3f}); final loss "
           f"cfb={cfb_history[-1].loss:.4f} <= tnt={tnt_history[-1].loss:.4f}"
           f"+0.05; {elapsed:.0f}s (< 1200s)")


def test_criterion_8_determinism(desk_scale_runs):
    dataset = desk_scale_runs["dataset"]
    identical = True
    for variant in ("tnt", "cfb"):
        _, _, first = desk_scale_runs["runs"][variant]
        _, _, again = run_desk_scale(variant, dataset)
        identical &= (json.dumps(first.to_dict(), sort_keys=True)
                      == json.dumps(again.to_dict(), sort_keys=True))
    report(8, identical, "rerun with seed 7 reproduces both metrics JSONs exactly")


def test_criterion_9_checkpoint_round_trip(desk_scale_runs, tmp_path):
    dataset = desk_scale_runs["dataset"]
    trainer, _, _ = desk_scale_runs["runs"]["tnt"]
    before = evaluate(trainer.model, trainer.test_quads, trainer.filter).to_dict()
    save_checkpoint(tmp_path / "ckpt", trainer.model.params,
                    vocab_hashes=dataset.vocab.hashes(), epoch=DESK["epochs"] - 1,
                    seed=DESK["seed"], num_timestamps=trainer.num_timestamps)
    params, _ = load_checkpoint(tmp_path / "ckpt", dataset)
    after = evaluate(Model(params), trainer.test_quads, trainer.filter).to_dict()
    report(9, before == after,
           "metrics after save/load are bit-identical to the live model")


# ---------------------------------------------------------------------------
# criterion 10: optional full-scale reproduction (not CI-gating)
# ---------------------------------------------------------------------------

def test_criterion_10_full_scale_reproduction_documented():
    script = Path(__file__).resolve().parents[1] / "demos" / "reproduce_icews14_cfb.py"
    assert script.is_file(), "reproduction script missing"
    print("criterion 10: SKIP - full ICEWS14 run (d=300, k=32, >=200 epochs) "
          "takes hours; run demos/reproduce_icews14_cfb.py manually")
    pytest.skip("optional multi-hour reproduction; script provided")
