"""npd benchmark: one workload per run, seeded inputs, a JSON result on the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the repository root; npd is imported from ``src/`` and the oracle
from ``tests/oracle.py``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; ``--smoke`` shrinks every input for the
benchmark's own tests. See perfbench/README.md for the workloads and metrics.
"""

import os

# one BLAS thread, set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "infer", "embed")
# Shares of --seconds; training gets the most because its repetitions are the longest.
SHARES = {"setup": 0.1, "train": 0.4, "infer": 0.25, "embed": 0.25}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "train_posts_per_s": "posts/s",
    "train_final_j_y": "nats",
    "test_avg_f1": "F1",
    "eval_posts_per_s": "posts/s",
    "predict_posts_per_s": "posts/s",
    "embed_tokens_per_s": "tokens/s",
    "embed_marker_nn_acc": "share",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def load_oracle():
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("npd_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(stages, args, sizes, workdir, tally):
    """Inputs plus the workload's stages, primary first and prepared."""
    inputs = stages.make_inputs(args.seed, sizes, workdir)
    names = [args.workload] + [n for n in WORKLOADS if n != args.workload]
    order = [stages.STAGES[n](inputs, tally) for n in names]
    order[0].prepare()
    return order


def untraced(args, sizes, workdir, oracle):
    """Set up, run the primary stage once and read peak RSS, then interleave
    more set-ups and all three stages for --seconds.

    The first set-up and each stage's first run only warm up (their checks
    and quality figures count, their times do not). The oracle check runs
    once, after peak RSS is read, and is timed in no metric. Every later
    repetition is
    scaled by the reference kernel's slowdown around it (see
    stages.Reference), and each metric is the median over its repetitions."""
    import stages

    tally = stages.Tally()
    order = set_up(stages, args, sizes, workdir / "run", tally)
    order[0].rep()
    metrics = {"peak_rss_mb": peak_rss_mb()}
    stages.check_oracle(order[0].inputs, tally, oracle)
    for stage in order[1:]:
        stage.prepare()
        stage.rep()
    again = stages.SetupStage(lambda: set_up(stages, args, sizes, workdir / "setup", tally))
    activities = [again, *order]
    shares = [SHARES[a.name] for a in activities]
    results = stages.measure(activities, shares, args.seconds, tally)
    for activity, reps in zip(activities, results):
        for key in reps[0][0]:
            raw = [r[key] for r, _ in reps]
            # a time grows with the slowdown, a rate shrinks
            scaled = [r[key] / slow if key == "setup_s" else r[key] * slow for r, slow in reps]
            metrics[key] = statistics.median(scaled)
            print(f"stage {activity.name}: {key} {metrics[key]:.6g} scaled median; raw median "
                  f"{statistics.median(raw):.6g}, range {min(raw):.6g}..{max(raw):.6g}; "
                  f"{len(raw)} repetitions")
        metrics.update(getattr(activity, "quality", {}))
    return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}, tally


def traced(args, sizes, workdir, oracle):
    """A fixed amount of work: set-up and one repetition of each stage, done
    twice untraced (the first warms up) and once traced, after the oracle
    check. The traced pass's stage time minus the second untraced pass's is
    the tracing overhead. The checks' own npd calls are left out of the trace."""
    import stages
    import tracing

    tally = stages.Tally()

    def one_pass():
        order = set_up(stages, args, sizes, workdir, tally)
        start = time.perf_counter()
        for i, stage in enumerate(order):
            if i:
                stage.prepare()
            gc.collect()
            stage.rep()
        return time.perf_counter() - start

    stages.check_oracle(stages.make_inputs(args.seed, sizes, workdir), tally, oracle)
    one_pass()
    untraced_s = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    tally.aside = tracer.paused
    try:
        start = time.perf_counter()
        traced_s = one_pass()
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracing.report_problems(tracer)
    return tracer.layer_metrics(wall_s, traced_s - untraced_s), tally


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import npd
        if Path(npd.__file__).resolve().parent.parent != (ROOT / "src").resolve():
            raise ImportError(f"npd imported from {npd.__file__}, not from src/")
        oracle = load_oracle()
    except (ImportError, OSError) as exc:
        print(f"error: run from a checkout of the npd repository ({exc})", file=sys.stderr)
        return 2
    import stages

    print(f"environment: nproc={os.cpu_count()} "
          + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
          + f" numpy={np.__version__} python={platform.python_version()}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    sizes = stages.SMOKE if args.smoke else stages.FULL
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        metrics, tally = run(args, sizes, workdir, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
