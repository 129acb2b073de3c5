"""tools/bench_ab.py: compare() on hand-made parent/change runs, and the per-run
fault counts on a stub benchmark command."""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

PARENT = [10.0 + i for i in range(10)]  # median 14.5, quartiles 12.25 and 16.75


def metric(better="higher", bound=0.24):
    return {"name": "x", "unit": "u", "better": better, "bound": bound}


def runs(parent, change):
    return {"parent": [{"metrics": {"x": v}} for v in parent],
            "change": [{"metrics": {} if v is None else {"x": v}} for v in change]}


def shifted(by, edits=None):
    """PARENT moved by `by`, with the pairs in `edits` set by hand."""
    return [(edits or {}).get(i, v + by) for i, v in enumerate(PARENT)]


@pytest.mark.parametrize("change, wins, ties, shown", [
    (shifted(5), 10, 0, True),
    (shifted(4), 10, 0, False),  # gap 4 within the parent's IQR 4.5
    (shifted(5, {0: 9.0}), 9, 0, True),
    (shifted(5, {0: 9.0, 1: 10.0}), 8, 0, False),
    (shifted(5, {0: 10.0}), 9, 1, True),  # a tie counts for neither side
    (shifted(5, {0: 10.0, 1: 11.0}), 8, 2, False),
], ids=["10-of-10", "inside-iqr", "9-of-10", "8-of-10", "9-wins-1-tie", "8-wins-2-ties"])
def test_gain_shown(change, wins, ties, shown):
    out = bench_ab.compare(runs(PARENT, change), metric())
    assert (out["pairs"], out["change_wins"], out["ties"]) == (10, wins, ties)
    assert out["parent_iqr"] == pytest.approx(4.5)
    assert out["gain_shown"] is shown
    assert out["within_bound"] is True


def test_gain_shown_for_lower_is_better():
    out = bench_ab.compare(runs(PARENT, shifted(-5)), metric(better="lower"))
    assert out["change_wins"] == 10 and out["gain_shown"] is True
    out = bench_ab.compare(runs(PARENT, shifted(5)), metric(better="lower"))
    assert out["change_wins"] == 0 and out["gain_shown"] is False


@pytest.mark.parametrize("better, parent, change, within", [
    ("lower", 1.0, 1.2, True),
    ("lower", 1.0, 1.3, False),
    ("higher", 100.0, 80.0, True),
    ("higher", 100.0, 70.0, False),
    ("higher", 100.0, 200.0, True),
])
def test_within_bound(better, parent, change, within):
    out = bench_ab.compare(runs([parent] * 10, [change] * 10), metric(better, bound=0.25))
    assert out["within_bound"] is within


def test_pairs_missing_the_metric_are_left_out():
    change = shifted(5, {0: None})
    out = bench_ab.compare(runs(PARENT, change), metric())
    assert out["pairs"] == 9 and out["change_wins"] == 9
    assert out["parent"]["runs"] == PARENT[1:]


# A stub benchmark command: it writes one byte to each 4 KiB page of an
# anonymous map of as many MiB as the file "mib" in its working directory
# holds (huge pages off, so each page faults once), then prints a result line.
STUB = """
import json, mmap, sys
size = int(open("mib").read()) << 20
if size:
    block = mmap.mmap(-1, size)
    block.madvise(mmap.MADV_NOHUGEPAGE)
    for offset in range(0, size, 4096):
        block[offset] = 1
print("environment: stub")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"x": {"value": float(sys.argv[sys.argv.index("--seed") + 1])}}}))
"""


def stub_checkout(path, mib):
    path.mkdir()
    (path / "mib").write_text(str(mib))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", STUB], "run_seconds": 1,
        "workloads": [{"name": "w"}], "end_to_end": [metric()]}))
    return path


def test_run_once_counts_the_runs_own_minor_faults(tmp_path):
    small, big = stub_checkout(tmp_path / "small", 0), stub_checkout(tmp_path / "big", 16)
    command = [sys.executable, "-c", STUB]
    first, touched, again = (bench_ab.run_once(checkout, command, "w", 5, 1)
                             for checkout in (small, big, small))
    assert first["correct"] and first["metrics"] == {"x": 5.0}
    # 16 MiB is 4096 pages; the rest of a run's faults vary by a few between runs
    assert touched["minflt"] - first["minflt"] > 4096 - 100
    assert 0 < again["minflt"] < touched["minflt"]  # not a running total


def test_record_holds_each_runs_faults_and_a_median_per_side(tmp_path):
    parent, change = stub_checkout(tmp_path / "parent", 16), stub_checkout(tmp_path / "change", 0)
    out = tmp_path / "bench.json"
    assert bench_ab.main(["--parent", str(parent), "--change", str(change),
                          "--first-seed", "1", "--out", str(out)]) == 0
    workload = json.loads(out.read_text())["workloads"]["w"]
    medians = workload["minflt_median"]
    for side in bench_ab.SIDES:
        faults = [run["minflt"] for run in workload["runs"][side]]
        assert len(faults) == bench_ab.PAIRS and all(f > 0 for f in faults)
        assert medians[side] == statistics.median(faults)
    assert medians["parent"] - medians["change"] > 4096 - 100
    assert workload["first_side"] == list(bench_ab.SIDES) * (bench_ab.PAIRS // 2)
