"""timekge benchmark: one command runs a workload and prints its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

For each workload it generates seeded ICEWS14-shaped input files
(``generate.py``; not timed), then runs the workload in a fresh child
process (``workload.py``) with the BLAS thread count pinned, so that peak
RSS belongs to that workload alone. Before starting a workload it compares
the workload's memory estimate with MemAvailable and refuses to start if it
does not fit. ``--smoke`` runs the same jobs at a tiny size on the bundled
synthetic dataset, in seconds.

It prints every metric by name and unit, then, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``. The full result, and the spans of
a traced run, are kept under ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, smoke_variant

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170  # per workload; a single-workload run must end within 180 s
# BLAS threads: the machine's cores, capped so that runs on larger machines
# stay comparable with the recorded baseline (measured with 2).
MAX_BLAS_THREADS = 2
# Printed next to the declared metrics, for reading; not part of the result line.
EXTRA_UNITS = {
    "train_keys_per_s": "keys/s", "eval_us_per_query": "us/query",
    "failed_ops_frac": "fraction", "trace.setup_overhead_frac": "fraction",
    "training.step_s_p90": "s",
}


class BenchError(Exception):
    pass


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + Path(args[0]).name)
    try:
        # run() kills the child and waits for it when the timeout expires
        done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} did not finish in time") from None
    if done.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited with code {done.returncode}")


def run_workload(name: str, opts, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = smoke_variant(WORKLOADS[name]) if opts.smoke else WORKLOADS[name]
    need = workload.memory_estimate_bytes()
    have = mem_available_bytes()
    if have is not None and need > have:
        raise BenchError(f"{name} needs about {need / 2**30:.2f} GiB but only "
                         f"{have / 2**30:.2f} GiB are available; not starting")

    work = WORK / f"{name}-seed{opts.seed}-{os.getpid()}"
    label = f"{name}-seed{opts.seed}-trace{opts.trace}"
    OUT.mkdir(exist_ok=True)
    try:
        data = work / "data"
        gen = [str(HERE / "generate.py"), "--out", str(data), "--seed", str(opts.seed)]
        if workload.job == "evaluate":
            gen += ["--checkpoint", workload.checkpoint_spec]
        run_child(gen + (["--smoke"] if opts.smoke else []), env, deadline)

        result_path = work / "result.json"
        cmd = [str(HERE / "workload.py"), "--workload", name, "--data", str(data),
               "--work", str(work), "--seed", str(opts.seed),
               "--seconds", str(opts.seconds), "--trace", str(opts.trace),
               "--result", str(result_path)]
        if opts.trace:
            cmd += ["--spans", str(OUT / f"{label}.spans.jsonl")]
        run_child(cmd + (["--smoke"] if opts.smoke else []), env, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["shape"] = json.loads((data / "shape.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["workload"] = name
    result["git"] = git_sha()
    result["estimate_mb"] = need / 2**20
    result["extra"]["failed_ops_frac"] = result["failed"] / max(result["attempted"], 1)
    if opts.trace == 0:
        per_op = result["metrics"]["us_per_op"]
        key = "train_keys_per_s" if workload.job == "train" else "eval_us_per_query"
        result["extra"][key] = 1e6 / per_op if workload.job == "train" else per_op
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict, units: dict) -> None:
    machine = result["machine"]
    print(f"== {result['workload']}  (nproc {machine['nproc']}, numpy {machine['numpy']}, "
          f"{machine['blas']}, BLAS threads {machine['blas_threads']}, "
          f"git {result.get('git') or 'unknown'})")
    shape = result["shape"]
    if "train_keys" in shape:
        print(f"   data: facts {shape['facts']}, 1-N keys {shape['train_keys']} "
              f"({shape['targets_per_key_mean']:.3f} targets/key, max "
              f"{shape['targets_per_key_max']}), filter {shape['filter_size_mean']:.3f} "
              f"objects/query (max {shape['filter_size_max']}); memory estimate "
              f"{result['estimate_mb']:.0f} MB")
    for name, value in result["metrics"].items():
        print(f"   {name:32s} {value:14.6g} {units.get(name, '')}")
    for name, value in result["extra"].items():
        if name in EXTRA_UNITS:
            print(f"   {name:32s} {value:14.6g} {EXTRA_UNITS[name]}")
    print(f"   operations: {result['attempted']} attempted, {result['failed']} failed")
    for what in result["failures"]:
        print(f"   FAILED: {what}")
    for name, why in result["extra"].get("missing", {}).items():
        print(f"   MISSING {name}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny models on the bundled synthetic dataset")
    opts = parser.parse_args(argv)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if not (SRC / "timekge" / "__init__.py").is_file():
            raise BenchError(f"no timekge sources under {SRC}")
        units = declared_metrics()[opts.trace]
        threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
        env = child_env(threads)
        names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
        results = []
        for name in names:
            result = run_workload(name, opts, env)
            report(result, units)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = (lambda r: f"{r['workload']}/") if opts.workload == "all" else (lambda r: "")
    metrics = {prefix(r) + name: {"value": value, "unit": units[name]}
               for r in results for name, value in r["metrics"].items() if name in units}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
