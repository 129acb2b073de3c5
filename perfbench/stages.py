"""Seeded inputs, the three measured stages, and the checks on their outputs.

Every workload runs all three stages (train, infer, embed) on the same
inputs, because every end-to-end metric is reported on every workload. The
workload names its primary stage: only that stage's preparation is part of
set-up, and it runs once before the others so that peak RSS can be read
right after it.

The benchmark only calls npd's public functions through their modules
(``training.train``, never a name imported from it), so a traced run can
wrap them.

npd's configs stay at their CLI defaults, seed 0 included. The workload seed
makes the inputs: the synthetic corpus, its split and the random embedding
table. README.md lists where the inputs differ from the CLI defaults: fixed
epochs with ``patience`` equal to them, random embeddings for training, and
smaller sizes.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from npd import cli, corpus, evaluation, model, text, training
from npd.corpus import EMOTIONS
from npd.errors import NpdError

VARIANT = "NPD"
VOCAB_SIZE = 2000    # npd CLI default --vocab-size
TRAIN_FRAC = 0.7     # npd CLI default --train-frac
EVAL_BATCH = 128     # evaluate()'s default batch size
EMBED_SCALE = 0.1    # standard deviation of the random embedding table
ORACLE_TOL = 1e-9
# Skip-gram must move the table by at least this many times its initial norm.
# The CLI-default config moves it by about 23 times on the full inputs and 3
# times on the smoke inputs; a change that drops the updates moves it by 0.
MIN_TABLE_GROWTH = 2.0


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the smoke sizes exist for the benchmark's tests."""

    n_posts: int         # synthetic corpus size (SynthConfig defaults otherwise)
    train_posts: int     # leading posts of the train split that the train stage uses
    epochs: int          # training epochs per train-stage repetition
    predict_posts: int   # leading posts of the test split fed to predict
    skipgram_posts: int  # leading posts of the corpus that the embed stage uses
    warmup_posts: int    # posts in the one-epoch model trained during set-up
    oracle_batch: int    # posts in the padded batch compared with the oracle


FULL = Sizes(n_posts=1000, train_posts=320, epochs=2, predict_posts=64,
             skipgram_posts=160, warmup_posts=64, oracle_batch=32)
SMOKE = Sizes(n_posts=60, train_posts=32, epochs=1, predict_posts=8,
              skipgram_posts=30, warmup_posts=16, oracle_batch=8)


class Tally:
    """Checks on outputs, counted against the operations they cover.

    The npd calls a check makes for itself run inside ``aside()``, which a
    traced run replaces with ``Tracer.paused`` so that they count in no layer.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.aside = contextlib.nullcontext

    def check(self, ok: bool, operations: int, what: str) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.problems.append(what)


@dataclass
class Inputs:
    sizes: Sizes
    workdir: Path
    vocab: text.Vocabulary
    num_locations: int
    train: list
    dev: list
    test: list
    test_posts: list      # the test split as raw posts, for predict's stdin
    skipgram_vocab: text.Vocabulary
    skipgram_corpus: list
    embedding: np.ndarray


def make_inputs(seed: int, sizes: Sizes, workdir: Path) -> Inputs:
    """The seeded corpus, vocabulary, splits and random embedding table."""
    cfg = corpus.SynthConfig(n_posts=sizes.n_posts, seed=seed)
    posts = corpus.synthesize(cfg)
    token_lists = [text.tokenize(p.text) for p in posts]
    vocab = text.build_vocab(token_lists, VOCAB_SIZE)
    train_raw, dev_raw, test_raw = corpus.split(posts, TRAIN_FRAC, seed)
    embedding = np.random.default_rng(seed).normal(
        0.0, EMBED_SCALE, size=(len(vocab), text.SkipGramConfig().embed_dim))
    # as ``npd embed`` does, skip-gram gets a vocabulary of its own corpus
    skipgram_tokens = token_lists[: sizes.skipgram_posts]
    skipgram_vocab = text.build_vocab(skipgram_tokens, VOCAB_SIZE)
    return Inputs(
        sizes=sizes, workdir=workdir, vocab=vocab,
        num_locations=cfg.m_locations,
        train=corpus.encode(train_raw[: sizes.train_posts], vocab),
        dev=corpus.encode(dev_raw, vocab), test=corpus.encode(test_raw, vocab),
        test_posts=test_raw, skipgram_vocab=skipgram_vocab,
        skipgram_corpus=[skipgram_vocab.encode(toks) for toks in skipgram_tokens],
        embedding=embedding)


def train_model(inputs: Inputs, posts, epochs: int, dev=()):
    """training.train on the NPD variant with CLI defaults but fixed epochs."""
    cfg = training.TrainingConfig(max_epochs=epochs, patience=epochs)
    return training.train(posts, list(dev), VARIANT, cfg, inputs.embedding,
                          inputs.num_locations, vocab_hash=inputs.vocab.content_hash())


def long_padded_batch(posts, size):
    """Posts spread evenly over the length range, shortest to longest."""
    by_len = sorted(posts, key=lambda p: len(p.ids))
    picks = np.unique(np.linspace(0, len(by_len) - 1, size).round().astype(int))
    return [by_len[i] for i in picks]


def check_oracle(inputs: Inputs, tally: Tally, oracle) -> None:
    """Train a one-epoch model on a few posts and check its forward on a long
    padded batch against the oracle, post by post."""
    with tally.aside():
        net = train_model(inputs, inputs.train[: inputs.sizes.warmup_posts], 1).model
        batch = long_padded_batch(inputs.train, inputs.sizes.oracle_batch)
        worst = oracle_mismatch(net, batch, oracle)
    for i, diff in enumerate(worst):
        tally.check(diff <= ORACLE_TOL, 1,
                    f"oracle: post {i} (length {len(batch[i].ids)}) differs by {diff:.3g}")


def oracle_mismatch(net, batch, oracle) -> list:
    """Largest absolute difference per post between the batched forward and
    the oracle's one-post forward, padded attention weights included."""
    fwd = net.forward(batch, train_mode=False)
    params = {name: node.value for name, node in net.params.items()}
    worst = []
    for i, post in enumerate(batch):
        ref = oracle.forward_post(params, net.embedding, post.ids, net.manifest)
        n = len(post.ids)
        diffs = [np.abs(fwd.emotion_probs[j].value[i] - ref["emotion_probs"][j]).max()
                 for j in range(len(EMOTIONS))]
        diffs.append(abs(fwd.gender_prob.value[i, 0] - ref["gender_prob"]))
        diffs.append(np.abs(fwd.location_probs.value[i] - ref["location_probs"]).max())
        diffs.append(np.abs(fwd.head_input.value[i] - ref["head_input"]).max())
        for name, weights in fwd.attention.items():
            diffs.append(np.abs(weights.value[i, :n] - ref["attention"][name]).max())
            diffs.append(np.abs(weights.value[i, n:]).max(initial=0.0))
        worst.append(float(max(diffs)))
    return worst


def eval_j_y(net, posts) -> float:
    """Mean J_y over posts from eval-mode forwards, so without dropout."""
    cfg = training.TrainingConfig()
    total = 0.0
    for start in range(0, len(posts), EVAL_BATCH):
        batch = posts[start : start + EVAL_BATCH]
        fwd = net.forward(batch, train_mode=False)
        total += len(batch) * float(training.batch_losses(net, fwd, batch, cfg)[0].value)
    return total / len(posts)


def marker_nn_accuracy(vocab, matrix) -> float:
    """Share of emo_* marker tokens whose cosine-nearest other marker names
    the same emotion."""
    ids = [i for i, tok in enumerate(vocab.id_to_token) if tok.startswith("emo_")]
    emotion = np.array([vocab.id_to_token[i].split("_")[1] for i in ids])
    vecs = matrix[ids] / np.linalg.norm(matrix[ids], axis=1, keepdims=True)
    sim = vecs @ vecs.T
    np.fill_diagonal(sim, -np.inf)
    return float(np.mean(emotion[sim.argmax(axis=1)] == emotion))


def _finite_params(net) -> bool:
    return all(np.all(np.isfinite(node.value)) for node in net.params.values())


class TrainStage:
    """training.train over the train split, with a dev evaluation per epoch."""

    name = "train"

    def __init__(self, inputs: Inputs, tally: Tally):
        self.inputs, self.tally = inputs, tally
        self.first_log = None
        self.quality = {}

    def prepare(self):
        pass

    def rep(self) -> dict:
        inp = self.inputs
        epochs = inp.sizes.epochs
        steps = epochs * math.ceil(len(inp.train) / training.TrainingConfig().batch_size)
        start = time.perf_counter()
        result = train_model(inp, inp.train, epochs, inp.dev)
        seconds = time.perf_counter() - start
        log = [(e.j_y, e.j_gend, e.j_loc, e.dev_f1) for e in result.log]
        self.tally.check(
            len(log) == epochs and all(math.isfinite(x) for row in log for x in row[:3])
            and _finite_params(result.model) and log == (self.first_log or log),
            steps, "train: a loss or a parameter is not finite, or a repeat logged other losses")
        if self.first_log is None:
            self.first_log = log
            with self.tally.aside():
                untrained = train_model(inp, inp.train, 0).model
                j_y_before, j_y_after = eval_j_y(untrained, inp.train), eval_j_y(result.model, inp.train)
                test_f1 = evaluation.evaluate(result.model, inp.test).average_f1
            self.tally.check(j_y_after < j_y_before, steps,
                             f"train: J_y on the train posts did not fall ({j_y_before:.6g} -> {j_y_after:.6g})")
            print(f"check train: eval-mode J_y on the train posts {j_y_before:.6g} untrained, "
                  f"{j_y_after:.6g} trained")
            self.quality = {"train_final_j_y": log[-1][0], "test_avg_f1": test_f1}
        return {"train_posts_per_s": epochs * len(inp.train) / seconds}


class InferStage:
    """evaluate at batch 128 over the test split, and cli.cmd_predict at batch 1
    over its first posts."""

    name = "infer"

    def __init__(self, inputs: Inputs, tally: Tally):
        self.inputs, self.tally = inputs, tally
        self.quality = {}

    def prepare(self):
        """Save a one-epoch model and the embedding table, then load both back
        as ``npd eval`` would."""
        inp = self.inputs
        net = train_model(inp, inp.train[: inp.sizes.warmup_posts], 1).model
        inp.workdir.mkdir(parents=True, exist_ok=True)
        self.checkpoint = inp.workdir / "model.npdc"
        self.embeddings = inp.workdir / "embeddings.txt"
        model.save_checkpoint(str(self.checkpoint), net)
        text.save_embeddings(str(self.embeddings), inp.vocab, text.EmbeddingTable(inp.embedding))
        self.model = model.load_checkpoint(str(self.checkpoint))
        vocab, _ = text.load_embeddings(str(self.embeddings))
        self.tally.check(vocab.content_hash() == inp.vocab.content_hash(), 1,
                         "infer: the saved vocabulary does not load back")
        self.posts = corpus.encode(inp.test_posts, vocab, self.model.manifest["tokenizer_mode"])
        self.stdin = "".join(p.text + "\n" for p in inp.test_posts[: inp.sizes.predict_posts])

    def _predict(self):
        args = argparse.Namespace(model=str(self.checkpoint), embeddings=str(self.embeddings))
        out = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(self.stdin)
        try:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = cli.cmd_predict(args)
                seconds = time.perf_counter() - start
        finally:
            sys.stdin = saved_stdin
        return code, out.getvalue(), seconds

    def rep(self) -> dict:
        start = time.perf_counter()
        evaluation.evaluate(self.model, self.posts, batch_size=EVAL_BATCH)
        eval_seconds = time.perf_counter() - start
        code, output, predict_seconds = self._predict()

        n = self.inputs.sizes.predict_posts
        with self.tally.aside():
            report = evaluation.evaluate(self.model, self.posts[:n], batch_size=EVAL_BATCH)

        records = [json.loads(line) for line in output.splitlines()]
        predicted = np.array([[e in r.get("predicted_emotions", ()) for e in EMOTIONS]
                              for r in records], dtype=np.int64).reshape(-1, len(EMOTIONS))
        rebuilt = evaluation.ConfusionCounts.zeros()
        if len(records) == n:
            rebuilt.add(predicted, np.stack([p.emotion_bits for p in self.posts[:n]]))
        same = code == 0 and len(records) == n and all(
            np.array_equal(getattr(rebuilt, k), getattr(report.counts, k))
            for k in ("tp", "fp", "fn", "tn"))
        self.tally.check(same, n, "infer: predict's labels do not rebuild evaluate's confusion counts")
        for i in range(n):
            rec = records[i] if i < len(records) else {}
            rows = rec.get("attention", {})
            ok = len(rows) == 2 and all(
                len(w) == len(rec.get("tokens", ())) and abs(math.fsum(w) - 1.0) <= ORACLE_TOL
                for w in rows.values())
            self.tally.check(ok, 1, f"infer: attention of post {i} does not sum to 1")
        return {"eval_posts_per_s": len(self.posts) / eval_seconds,
                "predict_posts_per_s": n / predict_seconds}


class EmbedStage:
    """text.train_skipgram with the CLI-default config over the corpus's first posts."""

    name = "embed"

    def __init__(self, inputs: Inputs, tally: Tally):
        self.inputs, self.tally = inputs, tally
        self.first = None
        self.quality = {}

    def prepare(self):
        pass

    def rep(self) -> dict:
        inp = self.inputs
        cfg = text.SkipGramConfig()
        start = time.perf_counter()
        table = text.train_skipgram(inp.skipgram_corpus, len(inp.skipgram_vocab), cfg)
        seconds = time.perf_counter() - start
        matrix = table.matrix
        self.tally.check(
            matrix.shape == (len(inp.skipgram_vocab), cfg.embed_dim) and bool(np.all(np.isfinite(matrix)))
            and (self.first is None or np.array_equal(matrix, self.first)), 1,
            "embed: the table has the wrong shape or a non-finite value, or a repeat differs")
        if self.first is None:
            self.first = matrix.copy()
            with self.tally.aside():
                untrained = text.train_skipgram(inp.skipgram_corpus, len(inp.skipgram_vocab),
                                                text.SkipGramConfig(epochs=0)).matrix
            growth = np.linalg.norm(matrix - untrained) / np.linalg.norm(untrained)
            self.tally.check(growth >= MIN_TABLE_GROWTH, 1,
                             f"embed: training moved the table by only {growth:.3g} times its initial norm")
            print(f"check embed: training moved the table by {growth:.4g} times its initial norm")
            self.quality = {"embed_marker_nn_acc": marker_nn_accuracy(inp.skipgram_vocab, matrix)}
        tokens = sum(len(ids) for ids in inp.skipgram_corpus) * cfg.epochs
        return {"embed_tokens_per_s": tokens / seconds}


STAGES = {"train": TrainStage, "infer": InferStage, "embed": EmbedStage}


class SetupStage:
    """Repeats a workload's set-up so that setup_s is sampled across the run."""

    name = "setup"

    def __init__(self, set_up):
        self.set_up = set_up

    def rep(self) -> dict:
        start = time.perf_counter()
        self.set_up()
        return {"setup_s": time.perf_counter() - start}


class Reference:
    """A fixed mix of the work npd does (small matmuls with tanh, an
    ``np.add.at`` scatter, JSON encoding), timed next to every repetition.

    The host this benchmark was written on slows whole windows of tens of
    seconds by up to 1.6x, and memory-bound code most. Scaling each
    repetition by how long this kernel took around it cancels most of that.
    REF_SECONDS is the kernel's time on that host when quiet, so scaled
    figures read as that host's quiet speed.
    """

    REF_SECONDS = 0.020

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(32, 128))
        self.w = rng.normal(size=(128, 512)) * 0.05
        self.table = np.zeros((2000, 100))
        self.idx = rng.integers(0, 2000, size=2560)
        self.upd = rng.normal(size=(2560, 100))
        self.record = {"tokens": [f"tok_{i}" for i in range(20)],
                       "p": {f"e{i}": i / 7 for i in range(5)}}

    def seconds(self) -> float:
        """The faster of two runs, so the first can bring its data into cache."""
        return min(self._once() for _ in range(2))

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            np.tanh(self.x @ self.w)
        for _ in range(2):
            np.add.at(self.table, self.idx, self.upd)
        for _ in range(200):
            json.dumps(self.record)
        return time.perf_counter() - start


def measure(stages, shares, seconds: float, tally: Tally) -> list:
    """Interleave repetitions of the stages until seconds have passed and each
    stage has a result, always running the stage furthest below its share of
    the time spent, so every stage samples the whole window.

    Each repetition starts from a collected heap, so no stage pays for
    another's garbage. Returns, per stage, (result, slowdown) pairs: slowdown
    is the reference kernel's mean time just before and just after the
    repetition, over REF_SECONDS. A repetition that raises an npd error counts
    as failed."""
    reference = Reference()
    runs = []  # (stage index, result, reference time just before), in the order run
    spent = [0.0] * len(stages)
    failures = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len({i for i, _, _ in runs}) < len(stages):
        i = min(range(len(stages)), key=lambda k: spent[k] / shares[k])
        gc.collect()
        ref = reference.seconds()
        rep_start = time.perf_counter()
        try:
            runs.append((i, stages[i].rep(), ref))
        except NpdError as exc:
            tally.check(False, 1, f"{stages[i].name}: {type(exc).__name__}: {exc}")
            failures += 1
            if failures >= 3:
                raise RuntimeError("three repetitions failed") from exc
        spent[i] += time.perf_counter() - rep_start
    gc.collect()
    refs_after = [ref for _, _, ref in runs[1:]] + [reference.seconds()]
    results = [[] for _ in stages]
    for (i, result, before), after in zip(runs, refs_after):
        results[i].append((result, (before + after) / 2 / Reference.REF_SECONDS))
    return results
