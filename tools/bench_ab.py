"""Parent-against-change benchmark of two npd checkouts, written as one JSON record.

    python3 tools/bench_ab.py --parent ../npd-parent --change . \
        --first-seed 2001 --out BENCH_<tag>.json

For every workload in the change checkout's BENCHMARK.json, each of PAIRS
pairs runs the benchmark command (``perfbench/run.py``) once in each
checkout on the same seed, at the declared ``run_seconds``; the side that
runs first alternates from pair to pair. Pair i of the k-th workload (from 0) uses seed
first_seed + 100 * k + i, so pick a first seed not used while the change
was written.

The record holds, for each workload and end-to-end metric, each side's
median, quartiles and runs, how many pairs the change won (ties count
for neither side), whether that shows a gain and whether the change stays
within the metric's bound, beside the benchmark's ``environment:`` line and
each checkout's commit. Runs are sequential: on a small host two at once would
slow each other.

Each run also records ``minflt``, the minor page faults of its process (and
of any child it waits for), and each workload the median per side: a
throughput that moves on unchanged code can be read against the heap state
it ran in.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the fewest the A/B protocol accepts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def git_ids(checkout: Path) -> dict:
    """The checkout's commit and the tree id of its src/, or None outside git."""
    ids = {}
    for key, rev in (("commit", "HEAD"), ("src_tree", "HEAD:src")):
        out = subprocess.run(["git", "rev-parse", rev], cwd=checkout, capture_output=True, text=True)
        ids[key] = out.stdout.strip() if out.returncode == 0 else None
    return ids


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds) -> dict:
    """One benchmark run: its metrics, check counts and environment line."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # runs are sequential, so the children's total grows by this run's faults alone
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    env = next((line for line in lines if line.startswith("environment:")), None)
    return {"seed": seed, "returncode": out.returncode, "wall_s": round(wall, 3),
            "minflt": faults, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "environment": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "stderr_tail": out.stderr.strip().splitlines()[-3:] if out.returncode else []}


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict, metric: dict) -> dict:
    """Both sides' spread of one metric and the pairs the change won.

    ``gain_shown``: the change won at least 9 in 10 pairs and its median is
    better than the parent's by more than the parent's interquartile range.
    ``within_bound``: the change's median is worse than the parent's by no
    more than the metric's ``bound``, a share of the parent's median.
    """
    name, better = metric["name"], metric["better"]
    pairs = [(p["metrics"].get(name), c["metrics"].get(name))
             for p, c in zip(runs["parent"], runs["change"])]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        return {"unit": metric["unit"], "better": better, "pairs": 0}
    sign = 1 if better == "higher" else -1
    out = {"unit": metric["unit"], "better": better, "pairs": len(pairs),
           "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
           "ties": sum(c == p for p, c in pairs)}
    for i, side in enumerate(SIDES):
        out[side] = summary([pair[i] for pair in pairs])
    base = out["parent"]["median"]
    gain = sign * (out["change"]["median"] - base)  # positive when the change is better
    out["median_change"] = (out["change"]["median"] - base) / base if base else None
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["gain_shown"] = 10 * out["change_wins"] >= 9 * len(pairs) and gain > out["parent_iqr"]
    out["within_bound"] = -gain <= metric["bound"] * abs(base)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"command": spec["command"], "run_seconds": spec["run_seconds"], "pairs": PAIRS,
              "first_seed": args.first_seed,
              "checkouts": {side: git_ids(path) for side, path in checkouts.items()},
              "workloads": {}}
    environments = set()
    for k, workload in enumerate(names):
        runs = {side: [] for side in SIDES}
        first = []
        for i in range(PAIRS):
            seed = args.first_seed + 100 * k + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                run = run_once(checkouts[side], spec["command"], workload, seed, spec["run_seconds"])
                runs[side].append(run)
                environments.add(run["environment"])
                print(f"{workload} pair {i} seed {seed} {side}: correct={run['correct']} "
                      f"wall {run['wall_s']:.1f} s", file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "seeds": [args.first_seed + 100 * k + i for i in range(PAIRS)],
            "first_side": first,
            "failed_runs": {side: sum(not r["correct"] or r["returncode"] != 0 for r in runs[side])
                            for side in SIDES},
            "metrics": {m["name"]: compare(runs, m) for m in spec["end_to_end"]},
            "minflt_median": {side: statistics.median(r["minflt"] for r in runs[side])
                              for side in SIDES},
            "runs": runs,
        }
        # written after each workload, so a stopped run keeps what it measured
        record["environment"] = sorted(e for e in environments if e) or None
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
