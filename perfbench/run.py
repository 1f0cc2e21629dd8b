"""quadcode benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload word_train_predict --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, nothing needs installing. One caller in one process drives the
pipeline in `workloads.py` as a closed loop: each call starts when the
previous one has returned. A run makes a warm-up pass and a fixed number
of passes with `train`, then fills what is left of `--seconds` with the
steps of passes without it. With `--trace 0` nothing is wrapped and the
end-to-end metrics are reported; with `--trace 1` passes after the
warm-up alternate traced and untraced, the per-layer metrics come from
the traced ones, and the traced minus untraced time is the overhead.

The last stdout line is the result object (`correct`, `attempted`,
`failed`, `metrics`); the line before it holds the run's environment,
input properties, computed counts and raw samples. The exit code is 0
only when every operation passed its oracle.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from quadcode import models  # noqa: E402
from tracing import Tracer, flops_per_example, layer_metrics, optimizer_bytes, pool_workers  # noqa: E402
from workloads import SCALES, Pipeline, Scale, digest_files, input_properties, make_inputs  # noqa: E402

SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "final_train_loss": "nats",
    "predict_records_per_s": "records/s",
    "load_s": "s",
    "label_sentences_per_s": "sentences/s",
    "transfer_split_records_per_s": "records/s",
    "peak_rss_mb": "MiB",
}


# --- environment -------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    """Facts that decide whether two results are comparable.

    `fingerprint` hashes every thread- and machine-related fact, so results
    from different thread environments carry different fingerprints.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "QUADCODE_THREADS": os.environ.get("QUADCODE_THREADS"),
        "quadcode_workers": pool_workers(),
    }
    env["fingerprint"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.txt"))
    env["git_commit"] = _git_commit(ROOT)
    env["source_sha256"] = digest_files(sources)
    return env


# --- one run -----------------------------------------------------------------------


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            scale: Scale | None = None) -> tuple[dict, dict]:
    """Set up, run the closed loop, and return (result object, run detail)."""
    scale = scale or SCALES[workload]
    setups: list[float] = []
    digests: set[str] = set()

    def set_up(directory: Path):
        start = perf_counter()
        inputs = make_inputs(scale, seed, directory)
        setups.append(perf_counter() - start)
        digests.add(digest_files([inputs.source, inputs.target, inputs.align, inputs.heldout]))
        return inputs

    inputs = set_up(work / "inputs")
    pipeline = Pipeline(scale, seed, inputs, work / "run")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    deadline = perf_counter() + seconds
    # Pass 0 warms up and its train call is not sampled; then two timed
    # passes with `train`, so that the train samples do not depend on how
    # many passes fit in `seconds`, and come from two moments of the run.
    # Traced runs make one traced and one untraced pass after the warm-up.
    passes = 3
    try:
        # The remaining set-ups are spread between passes, so that a few
        # slow seconds of the machine do not decide the median.
        for index in range(passes):
            pipeline.run_pass(tracer if trace and index % 2 == 1 else None)
            if len(setups) < SETUP_REPS:
                set_up(work / "inputs-again")
        # Untraced runs fill the time left with the steps of a pass without
        # `train`, in turn, each while its longest time so far still fits.
        steps = pipeline.fill_steps()
        longest = [0.0] * len(steps)
        index = 0
        while not trace and perf_counter() + longest[index] <= deadline:
            start = perf_counter()
            steps[index]()
            longest[index] = max(longest[index], perf_counter() - start)
            index = (index + 1) % len(steps)
            if index == 0 and len(setups) < SETUP_REPS:
                set_up(work / "inputs-again")
    finally:
        if tracer is not None:
            tracer.uninstall()
    pipeline.check_arithmetic()
    while len(setups) < SETUP_REPS:
        set_up(work / "inputs-again")
    if len(digests) != 1:
        raise RuntimeError("the same seed wrote different inputs")

    model = pipeline.loaded.model if pipeline.loaded is not None else None
    counts = {"train_examples": pipeline.train_examples, "passes": passes}
    if model is not None:
        counts.update({
            "parameters": models.parameter_count(model),
            "input_rows": model.config.vocab_size if model.kind == "word" else model.config.alphabet_size,
            "flops_per_example_fwd": flops_per_example(model),
            "optimizer_bytes_per_step": optimizer_bytes(model.parameters()),
        })
    if trace:
        timed = pipeline.pass_seconds[1:]  # without the warm-up pass
        by_mode = {flag: [s for traced, s in timed if traced is flag] for flag in (False, True)}
        overhead = (_median(by_mode[True]) or 0.0) - (_median(by_mode[False]) or 0.0)
        metrics = layer_metrics(tracer, counts.get("flops_per_example_fwd", {}), pool_workers())
        metrics["trace.overhead_s"] = (overhead, "s")
        table, tcounts = tracer.totals()
        counts["trace_counters"] = tcounts
        counts["trace_spans"] = {k: {"self_s": v[0], "calls": v[1]} for k, v in sorted(table.items())}
    else:
        # A throughput is the run's total work over the total time of its
        # sampled calls: every call of one metric does the same work, so
        # this is the harmonic mean of the per-call rates. Unlike a median
        # of a few calls, it does not jump between the fast and slow speeds
        # a single-threaded call gets from a shared host. Durations are
        # medians.
        values = {name: statistics.harmonic_mean(samples) if name.endswith("_per_s") else _median(samples)
                  for name, samples in pipeline.samples.items()}
        values.update({
            "setup_s": _median(setups),
            "final_train_loss": pipeline.final_train_loss,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        metrics = {name: (values.get(name), unit) for name, unit in END_TO_END_UNITS.items()}

    correct = pipeline.failed == 0 and all(v is not None for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_ops_ratio": pipeline.failed / pipeline.attempted,
        "env": environment(),
        "properties": input_properties(scale, seed, inputs),
        "counts": counts,
        "setup_s": setups,
        "samples": pipeline.samples,
        "pass_seconds": pipeline.pass_seconds,
        "output_digests": pipeline.digests,
        "failures": pipeline.failures,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="closed-loop measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = detail["env"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {detail['counts']['passes']} passes, "
          f"env {env['fingerprint']} (nproc {env['nproc']}, {env['blas']} x{env['blas_threads']}, "
          f"quadcode workers {env['quadcode_workers']})")
    print(f"  {'failed_ops_ratio':<36} {detail['failed_ops_ratio']:.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']} {metric['unit']}")
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
