"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this in a fresh process per workload, with the BLAS thread
count pinned, so that peak RSS belongs to the workload alone. It drives the
library only through its public functions, on files ``generate.py`` wrote.

Untraced (``--trace 0``) it sets up ``SETUP_REPEATS`` times, then measures
for ``--seconds``: train workloads run one-batch ``train_epoch`` calls over
a seeded, batch-aligned order of ``Trainer.keys`` after an untimed warm-up
batch; the eval workload ranks valid+test with ``evaluate`` in fixed
chunks. Timings are medians over set-ups, calls or chunks.

Traced (``--trace 1``) it first repeats one set-up and half the measurement
untraced, then installs the span tracer and runs the same again, so the
tracing overhead is measured in the same process. Per-layer metrics are
self times and counts of the traced half.

Correctness checks run in both modes and count as operations: every batch
loss is finite and the last is below the first, ``evaluate`` agrees with a
brute-force ``rank_of`` on sampled queries, 0 < MRR <= 1 for every ranked
chunk, and checkpoints load back bit for bit.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from timekge import datasets, evaluation, scoring, training

from spans import Tracer
from workloads import WORKLOADS, smoke_variant

SETUP_REPEATS = 5
MIN_SAMPLES = 3          # timed calls or chunks, however short --seconds is
EVAL_CHUNKS = 8          # valid+test is ranked in this many timed chunks
TRAIN_EVAL_QUERIES = 512  # valid queries ranked after training, as `timekge train` does
ORACLE_QUERIES = 32      # queries re-ranked by brute force
ROOT_SPAN = "workload"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Attempted and failed operations: batches, queries and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, count: int, ok: bool, what: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, ok, what)

    def error(self, count: int, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record(count, False, f"{what}: {sys.exc_info()[1]!r}")


def oracle_check(model, quads: np.ndarray, flt, rng: np.random.Generator, ops: Ops) -> None:
    """``evaluate`` on single queries against ``rank_of`` over raw logits."""
    picks = rng.choice(quads.shape[0], size=min(ORACLE_QUERIES, quads.shape[0]),
                       replace=False)
    for s, p, o, t in quads[np.sort(picks)].tolist():
        logits, _ = model.forward([s], [p], [t], training=False)
        known = flt[(s, p, t)]
        expected = evaluation.rank_of(logits[0], o, known[known != o])
        got = evaluation.evaluate(model, np.array([[s, p, o, t]]), flt).mrr
        ops.check(abs(got - 1.0 / expected) <= 1e-12,
                  f"query {(s, p, o, t)}: evaluate MRR {got} != 1/{expected}")


class TrainJob:
    """`timekge train`: Dataset.from_dir + Trainer, then 1-N batches."""

    def __init__(self, workload, data_dir: Path, work_dir: Path, seed: int):
        self.workload, self.data_dir, self.work_dir, self.seed = workload, data_dir, work_dir, seed

    def setup(self) -> dict:
        dataset = datasets.Dataset.from_dir(self.data_dir)
        w = self.workload
        config = training.TrainConfig(variant=w.variant, encoder=w.encoder,
                                      dim_entity=w.dim, rank=w.rank,
                                      batch_size=w.batch_size, seed=self.seed)
        return {"dataset": dataset, "trainer": training.Trainer(dataset, config)}

    def measure(self, state: dict, seconds: float, ops: Ops) -> list[float]:
        """Microseconds per 1-N key of each timed one-batch train_epoch call."""
        trainer = state["trainer"]
        size = trainer.config.batch_size
        order = np.random.default_rng(self.seed).permutation(trainer.keys.shape[0])
        count = order.size // size
        batches = trainer.keys[order[:count * size]].reshape(count, size, 3)

        def step(i: int) -> float | None:
            try:
                loss = training.train_epoch(
                    trainer.model, batches[i % count], trainer.targets,
                    trainer.config, trainer.adam, trainer.rng, trainer.config.lr)
            except Exception:  # any raised error is a failed batch
                ops.error(1, f"batch {i}")
                return None
            ops.record(1, math.isfinite(loss), f"batch {i}: loss {loss}")
            return loss

        losses = [step(0)]
        samples = []
        started = time.perf_counter()
        while losses[-1] is not None and (
                len(samples) < MIN_SAMPLES or time.perf_counter() - started < seconds):
            before = time.perf_counter()
            losses.append(step(len(losses)))
            samples.append((time.perf_counter() - before) / size * 1e6)
        finite = [x for x in losses if x is not None and math.isfinite(x)]
        ops.check(len(finite) == len(losses) and finite[-1] < finite[0],
                  f"batch losses {losses[0]} -> {losses[-1]}: last not below first")
        return samples

    def finish(self, state: dict, ops: Ops) -> None:
        """What `timekge train` does after its epochs: checkpoint and rank."""
        trainer, dataset = state["trainer"], state["dataset"]
        directory = self.work_dir / "roundtrip"
        training.save_checkpoint(directory, trainer.model.params,
                                 vocab_hashes=dataset.vocab.hashes(), epoch=0,
                                 seed=self.seed, num_timestamps=trainer.num_timestamps)
        state["loaded"], _ = training.load_checkpoint(directory, dataset)
        rng = np.random.default_rng(self.seed)
        valid = trainer.valid_quads
        picks = rng.choice(valid.shape[0], size=min(TRAIN_EVAL_QUERIES, valid.shape[0]),
                           replace=False)
        state["queries"] = valid[np.sort(picks)]
        result = evaluation.evaluate(trainer.model, state["queries"], trainer.filter)
        ops.record(state["queries"].shape[0], 0.0 < result.mrr <= 1.0,
                   f"valid sample MRR {result.mrr} outside (0, 1]")

    def check(self, state: dict, ops: Ops) -> None:
        trainer = state["trainer"]
        loaded = state["loaded"].tensors()
        for name, tensor in trainer.model.params.tensors().items():
            ok = name in loaded and loaded[name].dtype == tensor.dtype \
                and loaded[name].tobytes() == tensor.tobytes()
            ops.check(ok, f"checkpoint round trip changed {name}")
        oracle_check(trainer.model, state["queries"], trainer.filter,
                     np.random.default_rng(self.seed + 1), ops)


class EvalJob:
    """`timekge evaluate`: the cmd_evaluate set-up, then filtered ranking."""

    def __init__(self, workload, data_dir: Path, work_dir: Path, seed: int):
        self.workload, self.data_dir, self.seed = workload, data_dir, seed

    def setup(self) -> dict:
        dataset = datasets.Dataset.from_dir(self.data_dir)
        params, manifest = training.load_checkpoint(self.data_dir / "checkpoint", dataset)
        rate = int(manifest.get("time_sampling_rate", 1))
        vocab = dataset.vocab
        splits = {
            name: datasets.resample_time(
                datasets.augment_reciprocal(getattr(dataset, name), vocab.num_relations),
                rate, vocab.num_timestamps)[0]
            for name in datasets.SPLIT_NAMES
        }
        return {
            "params": params,
            "model": scoring.Model(params),
            "filter": evaluation.build_filter(list(splits.values())),
            "queries": np.concatenate([splits["valid"], splits["test"]]),
        }

    def measure(self, state: dict, seconds: float, ops: Ops) -> list[float]:
        """Microseconds per query of each timed valid+test chunk."""
        model, flt = state["model"], state["filter"]
        chunks = np.array_split(state["queries"], EVAL_CHUNKS)
        evaluation.evaluate(model, chunks[0][:256], flt)  # warm-up, untimed
        samples = []
        started = time.perf_counter()
        while len(samples) < max(MIN_SAMPLES, len(chunks)) \
                or time.perf_counter() - started < seconds:
            chunk = chunks[len(samples) % len(chunks)]
            before = time.perf_counter()
            try:
                result = evaluation.evaluate(model, chunk, flt)
            except Exception:  # any raised error fails the chunk's queries
                ops.error(chunk.shape[0], f"chunk {len(samples)}")
                break
            samples.append((time.perf_counter() - before) / chunk.shape[0] * 1e6)
            ops.record(chunk.shape[0], 0.0 < result.mrr <= 1.0,
                       f"chunk {len(samples) - 1}: MRR {result.mrr} outside (0, 1]")
        return samples

    def finish(self, state: dict, ops: Ops) -> None:
        pass

    def check(self, state: dict, ops: Ops) -> None:
        digests = json.loads((self.data_dir / "checkpoint.sha256.json").read_text())
        loaded = state["params"].tensors()
        for name, digest in sorted(digests.items()):
            ok = name in loaded and hashlib.sha256(
                np.ascontiguousarray(loaded[name], dtype="<f8").tobytes()).hexdigest() == digest
            ops.check(ok and set(loaded) == set(digests),
                      f"loaded checkpoint tensor {name} differs from the one written")
        oracle_check(state["model"], state["queries"], state["filter"],
                     np.random.default_rng(self.seed + 1), ops)


# ---------------------------------------------------------------------------
# tracing: which library functions are wrapped, and the metrics built on them
# ---------------------------------------------------------------------------

def _count(key, amount):
    def on_return(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)
    return on_return


def _checkpoint_bytes(args, kwargs, result):
    return sum(f.stat().st_size for f in Path(args[0]).iterdir() if f.is_file())


ENCODERS = ("SimpleTimeEncoder", "CyclicTimeEncoder")

# span name, module, qualified name, counter
TARGETS = [
    ("datasets.Dataset.from_dir", "timekge.datasets", "Dataset.from_dir", None),
    ("datasets.parse_quadruples", "timekge.datasets", "parse_quadruples", None),
    ("datasets.build_vocab", "timekge.datasets", "build_vocab", None),
    ("datasets.index_quadruples", "timekge.datasets", "index_quadruples",
     _count("facts", lambda a, k, r: len(r))),
    ("datasets.group_targets", "timekge.datasets", "group_targets",
     _count("keys", lambda a, k, r: len(r))),
    ("evaluation.build_filter", "timekge.evaluation", "build_filter", None),
    ("training.load_checkpoint", "timekge.training", "load_checkpoint",
     _count("checkpoint_bytes", _checkpoint_bytes)),
    ("training.save_checkpoint", "timekge.training", "save_checkpoint", None),
    ("scoring.init_params", "timekge.scoring", "init_params", None),
    ("training.AdamState.for_params", "timekge.training", "AdamState.for_params", None),
    ("training.Trainer.__init__", "timekge.training", "Trainer.__init__", None),
    ("training.train_epoch", "timekge.training", "train_epoch", None),
    ("training.bce_loss", "timekge.training", "bce_loss", None),
    ("training.adam_step", "timekge.training", "adam_step",
     _count("steps", lambda a, k, r: 1)),
    ("scoring.Model.fuse", "timekge.scoring", "Model.fuse", None),
    ("scoring.Model.forward", "timekge.scoring", "Model.forward",
     _count("scored_rows", lambda a, k, r: r[0].shape[0])),
    ("scoring.Model.backward", "timekge.scoring", "Model.backward", None),
] + [
    (f"time_encoding.{cls}.{method}", "timekge.time_encoding", f"{cls}.{method}",
     _count("encoded_rows", lambda a, k, r: r.shape[0]) if method == "encode_batch" else None)
    for cls in ENCODERS
    for method in ("encode_batch", "scatter_grad")
]

# per-layer metric: (spans it is measured at, how: "self" time or counter name)
LAYER_METRICS = {
    "datasets.parse_s": (["datasets.parse_quadruples"], "self"),
    "datasets.vocab_s": (["datasets.build_vocab"], "self"),
    "datasets.index_s": (["datasets.index_quadruples"], "self"),
    "datasets.facts": (["datasets.index_quadruples"], "facts"),
    "datasets.group_targets_s": (["datasets.group_targets"], "self"),
    "datasets.keys": (["datasets.group_targets"], "keys"),
    "evaluation.build_filter_s": (["evaluation.build_filter"], "self"),
    "training.load_checkpoint_s": (["training.load_checkpoint"], "self"),
    "training.checkpoint_bytes": (["training.load_checkpoint"], "checkpoint_bytes"),
    "training.init_s": (["scoring.init_params", "training.AdamState.for_params"], "self"),
    "training.trainer_init_self_s": (["training.Trainer.__init__"], "self"),
    "training.targets_s": (["training.train_epoch"], "self"),
    "training.bce_s": (["training.bce_loss"], "self"),
    "training.adam_s": (["training.adam_step"], "self"),
    "training.steps": (["training.adam_step"], "steps"),
    "training.step_s_p50": (["training.train_epoch"], "step_p50"),
    "scoring.fuse_s": (["scoring.Model.fuse"], "self"),
    "scoring.logits_s": (["scoring.Model.forward"], "self"),
    "scoring.rows": (["scoring.Model.forward"], "scored_rows"),
    "scoring.backward_s": (["scoring.Model.backward"], "self"),
    "time_encoding.encode_s": ([f"time_encoding.{c}.encode_batch" for c in ENCODERS], "self"),
    "time_encoding.scatter_s": ([f"time_encoding.{c}.scatter_grad" for c in ENCODERS], "self"),
    "time_encoding.rows": ([f"time_encoding.{c}.encode_batch" for c in ENCODERS], "encoded_rows"),
    "evaluation.rank_s": (["evaluation.evaluate"], "self"),
    "evaluation.rank_us_per_query": (["evaluation.evaluate"], "rank_us_per_query"),
    "evaluation.queries": (["evaluation.evaluate"], "queries"),
    "evaluation.masked_per_query": (["evaluation.evaluate"], "masked_per_query"),
}
# Layers the eval workload bypasses: they read 0 there. Everywhere else a
# layer whose spans never ran is reported missing, never as 0.
TRAINING_ONLY = {
    "training.init_s", "training.trainer_init_self_s", "training.targets_s",
    "training.bce_s", "training.adam_s", "training.steps", "training.step_s_p50",
    "scoring.backward_s", "time_encoding.scatter_s",
}


def install(tracer: Tracer, evaluated: list) -> None:
    for name, module, qualname, counter in TARGETS:
        tracer.wrap(name, module, qualname, counter)

    def on_evaluate(counts, args, kwargs, result):
        quads = args[1] if len(args) > 1 else kwargs["quads"]
        flt = args[2] if len(args) > 2 else kwargs.get("flt")
        counts["queries"] += len(quads)
        evaluated.append((quads, flt))

    tracer.wrap("evaluation.evaluate", "timekge.evaluation", "evaluate", on_evaluate)


def masked_per_query(evaluated: list) -> float:
    """Mean count of other known objects masked per filtered query."""
    masked = [flt[(s, p, t)].size - 1
              for quads, flt in evaluated if flt is not None
              for s, p, _, t in np.asarray(quads).tolist()]
    return float(np.mean(masked)) if masked else 0.0


def percentile_with_tail(values: list[float], q: float) -> float | None:
    """The q-quantile, only when at least ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    return float(np.quantile(values, q))


def layer_metrics(tracer: Tracer, self_s: dict, calls: dict, evaluated: list,
                  job: str) -> tuple[dict, dict]:
    derived = {
        "self": lambda names: sum(self_s.get(n, 0.0) for n in names),
        "step_p50": lambda names: statistics.median(tracer.durations(names[0]) or [0.0]),
        "rank_us_per_query": lambda names: (
            self_s.get(names[0], 0.0) / tracer.counts["queries"] * 1e6
            if tracer.counts["queries"] else 0.0),
        "masked_per_query": lambda names: masked_per_query(evaluated),
    }
    metrics, missing = {}, {}
    for metric, (names, how) in LAYER_METRICS.items():
        if any(n in tracer.missing for n in names):
            missing[metric] = "wrapped function not found: " + ", ".join(
                n for n in names if n in tracer.missing)
        elif not any(calls.get(n) for n in names) and not (
                job == "evaluate" and metric in TRAINING_ONLY):
            missing[metric] = "wrapped function never called: " + ", ".join(names)
        else:
            fn = derived.get(how)
            metrics[metric] = fn(names) if fn else float(tracer.counts[how])
    return metrics, missing


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------

def timed_setup(job) -> tuple[dict, float]:
    gc.collect()
    before = time.perf_counter()
    state = job.setup()
    return state, time.perf_counter() - before


def plain_run(job, seconds: float, ops: Ops) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next
        state, took = timed_setup(job)
        setups.append(took)
    samples = job.measure(state, seconds, ops)
    job.finish(state, ops)
    job.check(state, ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "us_per_op": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"setup_s_runs": setups, "us_per_op_runs": samples}
    return metrics, extra


def traced_run(job, seconds: float, ops: Ops, spans_path: Path | None) -> tuple[dict, dict]:
    state, setup_plain = timed_setup(job)
    rss_after_setup = peak_rss_mb()
    plain = statistics.median(job.measure(state, seconds / 2, ops))
    state = None
    gc.collect()

    tracer, evaluated = Tracer(), []
    install(tracer, evaluated)
    try:
        with tracer.span(ROOT_SPAN):
            state, setup_traced = timed_setup(job)
            traced = statistics.median(job.measure(state, seconds / 2, ops))
            job.finish(state, ops)
    finally:
        tracer.uninstall()
    job.check(state, ops)

    self_s, calls = tracer.self_times()
    metrics, missing = layer_metrics(tracer, self_s, calls, evaluated, job.workload.job)
    wall = tracer.durations(ROOT_SPAN)[0]
    ops.check(abs(sum(self_s.values()) - wall) <= 1e-6 * wall,
              "span self times do not add up to the traced wall time")
    metrics.update({
        "mem.peak_rss_after_setup_mb": rss_after_setup,
        "trace.wall_s": wall,
        "trace.unattributed_s": self_s[ROOT_SPAN],
        "trace.overhead_frac": traced / plain - 1.0,
    })
    extra = {
        "trace.setup_overhead_frac": setup_traced / setup_plain - 1.0,
        "trace.us_per_op_untraced": plain,
        "trace.us_per_op_traced": traced,
        "self_s": {name: [self_s[name], calls[name]] for name in sorted(self_s)},
        "missing": missing,
    }
    p90 = percentile_with_tail(tracer.durations("training.train_epoch"), 0.9)
    if p90 is not None:
        extra["training.step_s_p90"] = p90
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics, extra


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)
    job = (TrainJob if workload.job == "train" else EvalJob)(
        workload, args.data, args.work, args.seed)
    ops = Ops()
    if args.trace:
        metrics, extra = traced_run(job, args.seconds, ops, args.spans)
    else:
        metrics, extra = plain_run(job, args.seconds, ops)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures[:20],
        "metrics": metrics,
        "extra": extra,
        "machine": machine_info(),
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
