"""Per-emotion precision/recall/F1, model evaluation, and the ablation harness.

Average F1 is the unweighted mean of the five per-emotion F1 scores; any
zero denominator (no predicted positives, no gold positives, or both) makes
the affected quantity 0. The ablation harness retrains each (variant, seed)
pair against identical splits, vocabulary, and pretrained embeddings, and
can fan runs out over worker processes.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .corpus import EMOTIONS, TokenizedPost
from .errors import ContractError
from .model import NpdModel

_COLUMNS = ("Happiness", "Sadness", "Anger", "Surprise", "Fear")


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


def evaluate(model: NpdModel, posts: list[TokenizedPost], batch_size: int = 128) -> EvalReport:
    """Run the frozen model over a labeled set in eval mode and score it.

    Present/absent is thresholded at p(present) > 0.5. Posts are batched in
    order of length, which cuts padding; every count is a sum over posts, so
    the report does not depend on that order. Side-effect free: parameters
    and their gradients are untouched.
    """
    if not posts:
        raise ContractError("evaluate: empty evaluation set")
    by_length = sorted(posts, key=lambda p: len(p.ids))
    counts = ConfusionCounts.zeros()
    gender_hits = location_hits = 0
    has_gender = has_location = False
    for start in range(0, len(posts), batch_size):
        batch = by_length[start : start + batch_size]
        fwd = model.forward(batch, train_mode=False)
        gold = np.stack([p.emotion_bits for p in batch])
        present = np.stack([probs.value[:, 1] for probs in fwd.emotion_probs], axis=1)
        counts.add((present > 0.5).astype(np.int64), gold)
        if fwd.gender_prob is not None:
            has_gender = True
            pred = (fwd.gender_prob.value[:, 0] > 0.5).astype(np.int64)
            gender_hits += int((pred == np.array([p.gender_bit for p in batch])).sum())
        if fwd.location_probs is not None:
            has_location = True
            pred = fwd.location_probs.value.argmax(axis=1)
            location_hits += int((pred == np.array([p.location for p in batch])).sum())
    f1 = [f1_score(counts, j) for j in range(len(EMOTIONS))]
    return EvalReport(
        variant=model.variant.value,
        seed=int(model.manifest["seed"]),
        f1=f1,
        average_f1=float(np.mean(f1)),
        counts=counts,
        gender_accuracy=gender_hits / len(posts) if has_gender else None,
        location_accuracy=location_hits / len(posts) if has_location else None,
    )


def _run_one(args) -> EvalReport:
    from .training import ModelDims, TrainingConfig, train

    (train_posts, dev_posts, test_posts, variant, seed, cfg_kwargs, dims_kwargs,
     embedding, num_locations, vocab_hash, tokenizer_mode) = args
    cfg = TrainingConfig(**{**cfg_kwargs, "seed": seed})
    dims = ModelDims(**dims_kwargs)
    result = train(train_posts, dev_posts, variant, cfg, embedding, num_locations,
                   dims=dims, vocab_hash=vocab_hash, tokenizer_mode=tokenizer_mode)
    return evaluate(result.model, test_posts)


def ablate(splits, variants: list[str], seeds: list[int], cfg, embedding: np.ndarray,
           num_locations: int, dims=None, vocab_hash: str = "",
           tokenizer_mode: str = "whitespace", jobs: int = 1) -> list[EvalReport]:
    """Retrain and score every (variant, seed) pair on shared splits.

    splits is the (train, dev, test) triple of tokenized posts; cfg is the
    base TrainingConfig whose seed field is overridden per run. A run that
    raises is recorded as a failed row and the grid continues.
    """
    from .training import ModelDims

    if not variants or not seeds:
        raise ContractError("ablate: need at least one variant and one seed")
    train_posts, dev_posts, test_posts = splits
    dims = dims or ModelDims()
    cfg_kwargs = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    dims_kwargs = {k: getattr(dims, k) for k in dims.__dataclass_fields__}
    tasks = [(train_posts, dev_posts, test_posts, variant, seed, cfg_kwargs,
              dims_kwargs, embedding, num_locations, vocab_hash, tokenizer_mode)
             for variant in variants for seed in seeds]

    reports: list[EvalReport] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, t) for t in tasks]
            for task, fut in zip(tasks, futures):
                try:
                    reports.append(fut.result())
                except Exception as exc:
                    reports.append(EvalReport.failed(task[3], task[4], str(exc)))
    else:
        for task in tasks:
            try:
                reports.append(_run_one(task))
            except Exception as exc:
                reports.append(EvalReport.failed(task[3], task[4], str(exc)))
    return reports


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
