"""Losses, AdaGrad, and the joint adversarial training loop.

The total objective is a weighted sum of the emotion cross-entropy and the
two attribute-discriminator negative log-likelihoods: one nll node per
emotion head and per discriminator, a sum_squares node for the emotion
heads' L2 penalty, and weighted_total nodes for the sums. Discriminator heads
descend their own losses while the shared encoder ascends them through the
gradient-reversal nodes, so one backward pass plus one AdaGrad step per
batch realizes the saddle-point update on all four parameter partitions
simultaneously, with a shared learning rate.

The ablation harness, ablate, lives here too: it retrains every (variant,
seed) pair on shared splits and embeddings, in worker processes if asked.
"""

import concurrent.futures
import functools
import math
import multiprocessing
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import Node
from .corpus import TokenizedPost
from .errors import (COUNT, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, RATE, ContractError,
                     DivergenceError, check_fields)
from .evaluation import EvalReport
from .model import ForwardResult, ModelDims, NpdModel, build_model
from .seeding import SEED, substream

_PROB_FLOOR = 1e-300   # emotion heads: guards log(0) on collapsed softmax
_BCE_EPS = 1e-12       # discriminators: clamp range [eps, 1-eps]
_ADAGRAD_EPS = 1e-8    # AdaGrad: added to sqrt(acc) in the step's denominator


@dataclass
class TrainingConfig:
    # AdaGrad's learning rate. It bounds how far training can move a weight:
    # after T steps a coordinate has moved at most
    # mu * sqrt(T * (1 + ln(A_T / A_1))), where A_t is the sum of its squared
    # gradients over steps 1..t (Cauchy-Schwarz on sum_t g_t / sqrt(A_t)).
    # At this default, the CLI's 50 epochs of about 158 steps (the default
    # 8000-post synthetic corpus) move a weight by at most about
    # 0.009 * sqrt(1 + ln(A_T / A_1)), against the +-0.08 initialisation.
    mu: float = 0.0001
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    l2_lambda: float = 1e-4
    batch_size: int = 32
    dropout_rate: float = 0.2
    max_epochs: int = 50
    patience: int = 5
    grad_clip: float = 5.0  # global-norm cap; 0 disables (gradient-check mode)
    seed: int = 0

    RULES = {"mu": POSITIVE, "lambda1": NONNEGATIVE, "lambda2": NONNEGATIVE,
             "lambda3": NONNEGATIVE, "l2_lambda": NONNEGATIVE, "batch_size": COUNT,
             "dropout_rate": RATE, "max_epochs": NONNEGATIVE_INT, "patience": NONNEGATIVE_INT,
             "grad_clip": NONNEGATIVE, "seed": SEED}
    validate = check_fields


def emotion_loss(probs: list[Node], gold_bits: np.ndarray, head_params: list[Node],
                 l2_lambda: float) -> Node:
    """Mean over the batch of the summed per-emotion 2-class cross-entropy,
    plus (l2_lambda/2) * ||emotion-head parameters||^2.

    One nll node per emotion head and, when l2_lambda > 0, one sum_squares
    node for the penalty, summed by one weighted_total node."""
    terms = [ad.nll(p, gold_bits[:, j], _PROB_FLOOR, 1.0) for j, p in enumerate(probs)]
    weights = [1.0] * len(terms)
    if l2_lambda > 0.0:
        terms.append(ad.sum_squares(head_params))
        weights.append(l2_lambda / 2.0)
    return ad.weighted_total(terms, weights)


def gender_loss(gender_prob: Node, gold_bits: np.ndarray) -> Node:
    """Mean binary NLL of the [b x 1] male-probability against gold bits,
    one nll node with the clamp range [eps, 1 - eps]."""
    return ad.nll(gender_prob, gold_bits, _BCE_EPS, 1.0 - _BCE_EPS)


def location_loss(location_probs: Node, gold: np.ndarray) -> Node:
    """Mean NLL of the gold location class, one nll node."""
    return ad.nll(location_probs, gold, _BCE_EPS, 1.0)


def total_loss(j_y: Node, j_gend: Node | None, j_loc: Node | None,
               cfg: TrainingConfig) -> Node:
    """lambda1*J_y + lambda2*J_gend + lambda3*J_loc, one weighted_total node
    over the terms the variant has.

    The adversarial sign for the encoder comes from the reversal nodes in
    the forward graph, never from the weights here.
    """
    pairs = [(t, w) for t, w in ((j_y, cfg.lambda1), (j_gend, cfg.lambda2), (j_loc, cfg.lambda3))
             if t is not None]
    return ad.weighted_total([t for t, _ in pairs], [w for _, w in pairs])


def batch_losses(model: NpdModel, result: ForwardResult, batch: list[TokenizedPost],
                 cfg: TrainingConfig):
    """(J_y, J_gend, J_loc, J_total) graph nodes for one forward result."""
    gold = np.stack([p.emotion_bits for p in batch])
    heads = [node for name, node in model.params.items() if name.startswith("y.")]
    j_y = emotion_loss(result.emotion_probs, gold, heads, cfg.l2_lambda)
    j_g = j_l = None
    if result.gender_prob is not None:
        j_g = gender_loss(result.gender_prob, np.array([p.gender_bit for p in batch]))
    if result.location_probs is not None:
        j_l = location_loss(result.location_probs, np.array([p.location for p in batch]))
    return j_y, j_g, j_l, total_loss(j_y, j_g, j_l, cfg)


class AdaGrad:
    """Per-coordinate accumulator optimizer: acc += g^2; p -= mu*g/(sqrt(acc)+eps)."""

    def __init__(self, params: dict[str, Node], mu: float):
        self.params = params
        self.mu = mu
        self.acc = {k: np.zeros_like(v.value) for k, v in params.items()}

    def step(self) -> None:
        """Apply one joint update to every partition, then zero the gradients."""
        for name, node in self.params.items():
            g = node.grad
            acc = self.acc[name]
            acc += g * g
            node.value -= self.mu * g / (np.sqrt(acc) + _ADAGRAD_EPS)
            node.grad[...] = 0.0


def clip_global_norm(params: dict[str, Node], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm, and
    return the norm they had; a max_norm of 0 leaves them unchanged."""
    total = math.sqrt(sum(float(np.sum(n.grad * n.grad)) for n in params.values()))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for n in params.values():
            n.grad *= scale
    return total


def _first_nonfinite(loss: Node, param_names: dict[int, str]) -> str:
    """Name the earliest node (in forward order) holding a non-finite value."""
    for node in ad.graph_order(loss):
        if not np.all(np.isfinite(node.value)):
            return param_names.get(id(node), f"{node.op}{list(node.value.shape)}")
    return "loss"


@dataclass
class EpochLog:
    epoch: int
    j_y: float
    j_gend: float
    j_loc: float
    dev_f1: float


@dataclass
class TrainResult:
    model: NpdModel
    log: list[EpochLog] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_f1: float = float("nan")


def write_log(path: str, log: list[EpochLog]) -> None:
    """One tab-separated line per epoch: epoch, J_y, J_gend, J_loc, dev F1."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in log:
            fh.write(f"{row.epoch}\t{row.j_y:.6f}\t{row.j_gend:.6f}\t"
                     f"{row.j_loc:.6f}\t{row.dev_f1:.6f}\n")


def train(train_posts: list[TokenizedPost], dev_posts: list[TokenizedPost],
          variant, cfg: TrainingConfig, embedding: np.ndarray, num_locations: int,
          dims: ModelDims | None = None, vocab_hash: str = "") -> TrainResult:
    """Train one variant; returns the best-dev-F1 checkpoint and the epoch log.

    Runs shuffled minibatches; each batch takes one forward pass, one
    backward pass, and one AdaGrad step over all partitions. Early-stops
    when dev average F1 has not improved for cfg.patience epochs.

    The result is bit-reproducible per cfg.seed only at a fixed BLAS thread
    count. The npd command pins one thread (npd.blas); a library caller must
    set blas.THREAD_VARS before it first imports numpy to get its figures.
    """
    cfg.validate()
    if not train_posts:
        raise ContractError("train: empty training split")
    model = build_model(variant, embedding, num_locations, cfg.seed, dims=dims,
                        vocab_hash=vocab_hash)
    result = TrainResult(model=model)
    opt = AdaGrad(model.params, cfg.mu)
    rng_shuffle = substream(cfg.seed, "shuffle")
    rng_dropout = substream(cfg.seed, "dropout")
    param_names = {id(node): name for name, node in model.params.items()}

    best_state = None
    stale = 0
    n = len(train_posts)
    for epoch in range(cfg.max_epochs):
        order = rng_shuffle.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, cfg.batch_size):
            batch = [train_posts[i] for i in order[start : start + cfg.batch_size]]
            model.zero_grads()
            fwd = model.forward(batch, train_mode=True, rng=rng_dropout,
                                dropout_rate=cfg.dropout_rate)
            j_y, j_g, j_l, j = batch_losses(model, fwd, batch, cfg)
            if not np.isfinite(j.value):
                bad = _first_nonfinite(j, param_names)
                raise DivergenceError(f"non-finite loss at epoch {epoch}; first bad tensor: {bad}")
            ad.backward(j)
            clip_global_norm(model.params, cfg.grad_clip)
            opt.step()
            w = len(batch)
            sums += w * np.array([float(j_y.value),
                                  float(j_g.value) if j_g is not None else 0.0,
                                  float(j_l.value) if j_l is not None else 0.0])
        means = sums / n
        # looked up on the module, so a tracer that patches evaluation.evaluate sees it
        dev_f1 = evaluation.evaluate(model, dev_posts).average_f1 if dev_posts else float("nan")
        result.log.append(EpochLog(epoch, means[0], means[1], means[2], dev_f1))

        if dev_posts:
            if best_state is None or dev_f1 > result.best_dev_f1:
                result.best_dev_f1 = dev_f1
                result.best_epoch = epoch
                best_state = model.state()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    if best_state is not None:
        model.load_state(best_state)
    return result


def _run_one(splits, cfg: TrainingConfig, variant, seed: int, **train_kwargs) -> EvalReport:
    """Train one (variant, seed) pair on the train and dev splits; score it on test."""
    result = train(*splits[:2], variant, replace(cfg, seed=seed), **train_kwargs)
    return evaluation.evaluate(result.model, splits[2])


def ablate(splits, variants: list[str], seeds: list[int], cfg: TrainingConfig,
           embedding: np.ndarray, num_locations: int, dims: ModelDims | None = None,
           jobs: int = 1) -> list[EvalReport]:
    """Retrain and score every (variant, seed) pair on shared splits.

    splits is the (train, dev, test) triple of tokenized posts; each run
    takes cfg with its seed replaced. cfg and dims are validated before any
    run; a run that raises, here or in one of the jobs worker processes, is
    a failed row and the grid continues. As for train, a run's scores depend
    on the BLAS thread count; the worker processes read blas.THREAD_VARS
    from the caller's environment when they import numpy.
    """
    if not variants or not seeds:
        raise ContractError("ablate: need at least one variant and one seed")
    cfg.validate()
    dims = dims or ModelDims()
    dims.validate()
    run = functools.partial(_run_one, splits, cfg, embedding=embedding,
                            num_locations=num_locations, dims=dims)
    pairs = [(variant, seed) for variant in variants for seed in seeds]
    reports: list[EvalReport] = []
    # spawn, not fork: a fork copies the BLAS thread pool's locks but not its threads.
    # Reached through the package, ProcessPoolExecutor loads its submodule (and
    # subprocess) only when a pool is built.
    with (concurrent.futures.ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn"))
          if jobs > 1 else nullcontext()) as pool:
        # each call returns the run's report or raises what the run raised
        calls = [pool.submit(run, v, s).result if pool else functools.partial(run, v, s)
                 for v, s in pairs]
        for (variant, seed), call in zip(pairs, calls):
            try:
                reports.append(call())
            except Exception as exc:
                reports.append(EvalReport.failed(variant, seed, str(exc)))
    return reports
