"""Per-emotion precision/recall/F1, model evaluation, and the report table.

Average F1 is the unweighted mean of the five per-emotion F1 scores; any
zero denominator (no predicted positives, no gold positives, or both) makes
the affected quantity 0. The ablation harness that fills the report table
lives beside train, in training.ablate.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import EMOTIONS, TokenizedPost
from .errors import ContractError
from .model import ForwardResult, NpdModel

EVAL_BATCH = 128  # posts per eval-mode forward pass, in evaluate and `npd predict`
_COLUMNS = tuple(e.capitalize() for e in EMOTIONS)


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


def evaluate(model: NpdModel, posts: list[TokenizedPost],
             batch_size: int = EVAL_BATCH) -> EvalReport:
    """Run the model over a labeled set in eval mode and score it.

    No forward keeps a backward closure, and the model's parameters and
    gradients are untouched (see NpdModel.forward). Labels are scored as
    predictions gives them. Posts are batched in order of length, which
    shortens each batch's time loop to about its posts' own length; every
    count is a sum over posts, so the report does not depend on that order.
    The gender and location accuracies are reported iff the model's wiring
    has that discriminator.
    """
    if not posts:
        raise ContractError("evaluate: empty evaluation set")
    by_length = sorted(posts, key=lambda p: len(p.ids))
    counts = ConfusionCounts.zeros()
    gender_hits = location_hits = 0
    for start in range(0, len(posts), batch_size):
        batch = by_length[start : start + batch_size]
        pred = predictions(model.forward(batch, train_mode=False))
        counts.add(pred.emotions, np.stack([p.emotion_bits for p in batch]))
        if pred.male is not None:
            gender_hits += int((pred.male == np.array([p.gender_bit for p in batch])).sum())
        if pred.location is not None:
            location_hits += int((pred.location == np.array([p.location for p in batch])).sum())
    f1 = [f1_score(counts, j) for j in range(len(EMOTIONS))]
    wiring = model.wiring
    return EvalReport(
        variant=model.variant,
        seed=int(model.manifest["seed"]),
        f1=f1,
        average_f1=float(np.mean(f1)),
        counts=counts,
        gender_accuracy=gender_hits / len(posts) if wiring.gender_discriminator else None,
        location_accuracy=location_hits / len(posts) if wiring.location_discriminator else None,
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
