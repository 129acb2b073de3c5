"""Per-emotion precision/recall/F1, model evaluation, and the report table.

Average F1 is the unweighted mean of the five per-emotion F1 scores; any
zero denominator (no predicted positives, no gold positives, or both) makes
the affected quantity 0. The ablation harness that fills the report table
lives beside train, in training.ablate.

evaluate runs its length-sorted batches on two threads where
blas.worker_allowed says so (at least 2 usable cores, and BLAS pinned to
one thread per call, as the npd command pins it by default): a worker
thread takes the cheaper batches, up to WORKER_SHARE of the caller's work,
and numpy's BLAS calls and ufunc loops release the GIL, so the two forwards
overlap. Each batch is reduced to its predicted labels, whose counts and
hits are summed in batch order, so a report is the same on one thread or two.

Whether the worker is faster depends on the host, not on the core count
alone: it pays only where the second thread gets a core of its own. On one
2-vCPU host, two threads of one-thread 256^2 to 1024^2 matrix products got
0.92-1.05x the total throughput of one thread at some times and 1.99x at
others; at the low end the worker gains no speed and its buffers add to
peak memory (tools/bench_ab.py records this ratio as thread_scaling).
"""

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import blas
from .corpus import EMOTIONS, TokenizedPost
from .errors import ContractError
from .model import ForwardResult, NpdModel

_COLUMNS = ("Happiness", "Sadness", "Anger", "Surprise", "Fear")
# The worker's estimated work is at most this share of the caller's, so it
# finishes with time to spare and the call lasts as long as the caller's part.
WORKER_SHARE = 0.75


@dataclass
class ConfusionCounts:
    """Per-emotion confusion totals; each row sums to the test-set size."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    @classmethod
    def zeros(cls) -> "ConfusionCounts":
        k = len(EMOTIONS)
        return cls(*(np.zeros(k, dtype=np.int64) for _ in range(4)))

    def add(self, predicted: np.ndarray, gold: np.ndarray) -> None:
        self.tp += ((predicted == 1) & (gold == 1)).sum(axis=0)
        self.fp += ((predicted == 1) & (gold == 0)).sum(axis=0)
        self.fn += ((predicted == 0) & (gold == 1)).sum(axis=0)
        self.tn += ((predicted == 0) & (gold == 0)).sum(axis=0)


def f1_score(counts: ConfusionCounts, j: int) -> float:
    """F1 for emotion j; zero denominators yield 0."""
    tp, fp, fn = int(counts.tp[j]), int(counts.fp[j]), int(counts.fn[j])
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    variant: str
    seed: int
    f1: list[float]
    average_f1: float
    counts: ConfusionCounts | None = None
    gender_accuracy: float | None = None
    location_accuracy: float | None = None
    error: str | None = None

    @classmethod
    def failed(cls, variant: str, seed: int, message: str) -> "EvalReport":
        return cls(variant=variant, seed=seed, f1=[float("nan")] * len(EMOTIONS),
                   average_f1=float("nan"), error=message)


class Predictions(NamedTuple):
    emotions: np.ndarray         # [b x 5] {0,1}: p(present) > 0.5
    male: np.ndarray | None      # [b] {0,1}: p(male) > 0.5; None without a gender discriminator
    location: np.ndarray | None  # [b] most probable class; None without a location discriminator


def predictions(fwd: ForwardResult) -> Predictions:
    """The labels a forward pass predicts for each of its posts: the one
    decision rule that evaluate scores and `npd predict` prints."""
    present = np.stack([probs.value[:, 1] for probs in fwd.emotion_probs], axis=1)
    male = location = None
    if fwd.gender_prob is not None:
        male = (fwd.gender_prob.value[:, 0] > 0.5).astype(np.int64)
    if fwd.location_probs is not None:
        location = fwd.location_probs.value.argmax(axis=1)
    return Predictions((present > 0.5).astype(np.int64), male, location)


def _score_batch(model: NpdModel, batch: list[TokenizedPost]) -> Predictions:
    """One eval-mode forward over a batch, reduced to its predictions."""
    return predictions(model.forward(batch, train_mode=False))


def _worker_batches(batches: list) -> list[int]:
    """The indices, ascending, of the batches the worker runs.

    A batch's cost is its posts' total length, which the LSTM's work grows
    with. In order of falling cost, each batch goes to the worker if the
    worker's total would stay within WORKER_SHARE of the caller's, else to
    the caller, who so takes the costliest batch. The call then lasts
    about as long as the caller's part, and a worker slowed by a busy core
    still finishes within it. An even split finishes sooner on two idle
    cores, but the call then waits on whichever thread is slower, so its
    duration follows the load on both cores instead of the caller's alone.
    """
    cost = [sum(len(p.ids) for p in batch) for batch in batches]
    worker, worker_cost, caller_cost = [], 0, 0
    for i in sorted(range(len(batches)), key=lambda i: -cost[i]):
        if worker_cost + cost[i] <= WORKER_SHARE * caller_cost:
            worker.append(i)
            worker_cost += cost[i]
        else:
            caller_cost += cost[i]
    return sorted(worker)


def _score_overlapped(model: NpdModel, batches: list, on_worker: list[int]) -> list[Predictions]:
    """Each batch's predictions, in batch order: the batches on_worker names run,
    in order, on one worker thread while the calling thread runs the others,
    also in order. numpy releases the GIL inside BLAS calls and ufunc loops,
    so the two forwards overlap.

    A failed batch stops both threads: before each of its batches the caller
    checks the worker's finished earlier batches, and the worker's batches
    not yet started are cancelled. Of two failed batches the earlier one's
    error is raised, as in a serial run, and the worker thread has exited
    before this returns or raises.
    """
    pool = ThreadPoolExecutor(1)
    try:
        futures = {i: pool.submit(_score_batch, model, batches[i]) for i in on_worker}
        scores = [None] * len(batches)
        for i in range(len(batches)):
            if i in futures:
                continue
            earlier = [future for j, future in futures.items() if j < i]
            try:
                for done in filter(Future.done, earlier):
                    done.result()  # raises a failed worker batch's error now
                scores[i] = _score_batch(model, batches[i])
            except Exception:
                for future in earlier:  # the worker runs them in order
                    future.result()
                raise
        for i, future in futures.items():
            scores[i] = future.result()
        return scores
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate(model: NpdModel, posts: list[TokenizedPost], batch_size: int = 128) -> EvalReport:
    """Run the model over a labeled set in eval mode and score it.

    No forward keeps a backward closure, and the model's parameters and
    gradients are untouched (see NpdModel.forward). Labels are scored as
    predictions gives them. Posts are batched in order of length, which
    shortens each batch's time loop to about its posts' own length; every
    count is a sum over posts, so the report does not depend on that order.

    With more than one batch, and where blas.worker_allowed says so, one worker
    thread runs the cheaper batches (see _worker_batches) while the caller
    runs the others, so at most two batches are in flight. Their counts and
    hits are added in batch order, and the report is the same with or
    without the worker. An error in either thread is raised here, and no
    thread outlives the call.
    """
    if not posts:
        raise ContractError("evaluate: empty evaluation set")
    by_length = sorted(posts, key=lambda p: len(p.ids))
    batches = [by_length[start : start + batch_size] for start in range(0, len(posts), batch_size)]
    on_worker = _worker_batches(batches) if len(batches) > 1 and blas.worker_allowed() else []
    if on_worker:
        scores = _score_overlapped(model, batches, on_worker)
    else:
        scores = [_score_batch(model, batch) for batch in batches]
    counts = ConfusionCounts.zeros()
    gender_hits = location_hits = 0
    for pred, batch in zip(scores, batches):
        counts.add(pred.emotions, np.stack([p.emotion_bits for p in batch]))
        if pred.male is not None:
            gender_hits += int((pred.male == np.array([p.gender_bit for p in batch])).sum())
        if pred.location is not None:
            location_hits += int((pred.location == np.array([p.location for p in batch])).sum())
    f1 = [f1_score(counts, j) for j in range(len(EMOTIONS))]
    first = scores[0]  # every batch's predictions have the same parts
    return EvalReport(
        variant=model.variant,
        seed=int(model.manifest["seed"]),
        f1=f1,
        average_f1=float(np.mean(f1)),
        counts=counts,
        gender_accuracy=gender_hits / len(posts) if first.male is not None else None,
        location_accuracy=location_hits / len(posts) if first.location is not None else None,
    )


def seed_mean_average_f1(reports: list[EvalReport]) -> dict[str, float]:
    """Mean Average-F1 per variant over seeds, skipping failed rows."""
    by_variant: dict[str, list[float]] = {}
    for r in reports:
        if r.error is None:
            by_variant.setdefault(r.variant, []).append(r.average_f1)
    return {v: float(np.mean(scores)) for v, scores in by_variant.items()}


def format_report_table(reports: list[EvalReport], seed_means: bool = True) -> str:
    """Tab-separated table: variant, seed, per-emotion F1 columns, Average."""
    lines = ["\t".join(("Variant", "Seed", *_COLUMNS, "Average"))]
    for r in reports:
        if r.error is not None:
            lines.append(f"{r.variant}\t{r.seed}\tFAILED: {r.error}")
            continue
        cells = [f"{x:.6f}" for x in (*r.f1, r.average_f1)]
        lines.append("\t".join((r.variant, str(r.seed), *cells)))
    if seed_means:
        for variant, mean in seed_mean_average_f1(reports).items():
            lines.append(f"{variant}\tmean\t\t\t\t\t\t{mean:.6f}")
    return "\n".join(lines) + "\n"
