"""Losses, AdaGrad, and the joint adversarial training loop.

The total objective is a weighted sum of the emotion cross-entropy and the
two attribute-discriminator negative log-likelihoods. Discriminator heads
descend their own losses while the shared encoder ascends them through the
gradient-reversal nodes, so one backward pass plus one AdaGrad step per
batch realizes the saddle-point update on all four parameter partitions
simultaneously, with a shared learning rate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .corpus import EMOTIONS, TokenizedPost
from .errors import ConfigError, ContractError, DivergenceError
from .model import ForwardResult, ModelVariant, NpdModel, build_model
from .seeding import substream

_PROB_FLOOR = 1e-300   # emotion heads: guards log(0) on collapsed softmax
_BCE_EPS = 1e-12       # discriminators: clamp range [eps, 1-eps]


@dataclass
class ModelDims:
    """Architecture knobs threaded from the CLI into model construction."""

    hidden_dim: int = 128
    attention_dim: int | None = None
    head_hidden_dim: int | None = None
    lambda_rev: float = 1.0
    finetune_embeddings: bool = False

    def validate(self):
        for name in ("hidden_dim", "attention_dim", "head_hidden_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


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
    adagrad_eps: float = 1e-8
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"learning rate mu must be positive and finite, got {self.mu}")
        for name in ("lambda1", "lambda2", "lambda3", "l2_lambda", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be nonnegative and finite, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.max_epochs < 0 or self.patience < 0:
            raise ConfigError("max_epochs and patience must be nonnegative")


def emotion_loss(probs: list[Node], gold_bits: np.ndarray, head_params: list[Node],
                 l2_lambda: float) -> Node:
    """Mean over the batch of the summed per-emotion 2-class cross-entropy,
    plus (l2_lambda/2) * ||emotion-head parameters||^2.

    One nll node per emotion head, their sum, and one sum_squares node for
    the penalty."""
    loss = None
    for j, p in enumerate(probs):
        term = ad.nll(p, gold_bits[:, j], _PROB_FLOOR, 1.0)
        loss = term if loss is None else ad.add(loss, term)
    if l2_lambda > 0.0:
        loss = ad.add(loss, ad.scale_shift(ad.sum_squares(head_params), l2_lambda / 2.0))
    return loss


def gender_loss(gender_prob: Node, gold_bits: np.ndarray) -> Node:
    """Mean binary NLL of the predicted male-probability against gold bits.

    The [b x 1] male-probability p becomes the 2-class matrix [1 - p, p]
    (female, male), so one nll node with the clamp range [eps, 1 - eps]
    scores both labels."""
    both = ad.concat(ad.scale_shift(gender_prob, -1.0, 1.0), gender_prob)
    return ad.nll(both, gold_bits, _BCE_EPS, 1.0 - _BCE_EPS)


def location_loss(location_probs: Node, gold: np.ndarray) -> Node:
    """Mean NLL of the gold location class, one nll node."""
    return ad.nll(location_probs, gold, _BCE_EPS, 1.0)


def total_loss(j_y: Node, j_gend: Node | None, j_loc: Node | None,
               cfg: TrainingConfig) -> Node:
    """lambda1*J_y + lambda2*J_gend + lambda3*J_loc.

    The adversarial sign for the encoder comes from the reversal nodes in
    the forward graph, never from the weights here.
    """
    out = ad.scale_shift(j_y, cfg.lambda1)
    if j_gend is not None:
        out = ad.add(out, ad.scale_shift(j_gend, cfg.lambda2))
    if j_loc is not None:
        out = ad.add(out, ad.scale_shift(j_loc, cfg.lambda3))
    return out


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

    def __init__(self, params: dict[str, Node], mu: float, eps: float = 1e-8):
        self.params = params
        self.mu = mu
        self.eps = eps
        self.acc = {k: np.zeros_like(v.value) for k, v in params.items()}

    def step(self) -> None:
        """Apply one joint update to every partition, then zero the gradients."""
        for name, node in self.params.items():
            g = node.grad
            acc = self.acc[name]
            acc += g * g
            node.value -= self.mu * g / (np.sqrt(acc) + self.eps)
            node.grad[...] = 0.0


def clip_global_norm(params: dict[str, Node], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
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
          dims: ModelDims | None = None, vocab_hash: str = "",
          tokenizer_mode: str = "whitespace",
          extra_manifest: dict | None = None) -> TrainResult:
    """Train one variant; returns the best-dev-F1 checkpoint and the epoch log.

    Runs shuffled minibatches; each batch takes one forward pass, one
    backward pass, and one AdaGrad step over all partitions. Early-stops
    when dev average F1 has not improved for cfg.patience epochs.
    """
    from .evaluation import evaluate  # local import; evaluation.ablate calls back here

    cfg.validate()
    if not train_posts:
        raise ContractError("train: empty training split")
    dims = dims or ModelDims()
    dims.validate()
    variant = ModelVariant(variant)
    model = build_model(variant, embedding, num_locations, cfg.seed,
                        hidden_dim=dims.hidden_dim, attention_dim=dims.attention_dim,
                        head_hidden_dim=dims.head_hidden_dim, lambda_rev=dims.lambda_rev,
                        finetune_embeddings=dims.finetune_embeddings,
                        vocab_hash=vocab_hash, tokenizer_mode=tokenizer_mode,
                        extra_manifest=extra_manifest)
    result = TrainResult(model=model)
    if cfg.max_epochs == 0:
        return result

    opt = AdaGrad(model.params, cfg.mu, cfg.adagrad_eps)
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
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}; first bad tensor: {bad}",
                    tensor_name=bad)
            ad.backward(j)
            if cfg.grad_clip > 0.0:
                clip_global_norm(model.params, cfg.grad_clip)
            opt.step()
            w = len(batch)
            sums += w * np.array([float(j_y.value),
                                  float(j_g.value) if j_g is not None else 0.0,
                                  float(j_l.value) if j_l is not None else 0.0])
        means = sums / n
        dev_f1 = evaluate(model, dev_posts).average_f1 if dev_posts else float("nan")
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
