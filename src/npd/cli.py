"""Command-line entry point: synth, embed, train, eval, ablate, predict.

Defaults mirror the reference hyperparameters (vocabulary 2000, batch size
32, dropout 0.2, learning rate 0.0001, loss weights 1:1:1). Every stochastic
component keys off --seed through named substreams, so identical invocations
produce byte-identical outputs. Exit codes: 0 success, 1 validation error,
2 runtime abort (e.g. divergence).
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import text as text_mod
from .corpus import EMOTIONS, GENDERS, SynthConfig
from .errors import ConfigError, DataError, DivergenceError, NpdError
from .evaluation import evaluate, format_report_table, predictions
from .model import VARIANT_NAMES, ModelDims, check_variant, load_checkpoint, save_checkpoint
from .training import TrainingConfig, ablate, train, write_log

PREDICT_BATCH = 128  # predict's lines per forward pass; evaluate's default batch size


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="master seed for all substreams")


def _add_embed_args(p):
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--embed-dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--embed-epochs", type=int, default=5)
    p.add_argument("--embed-lr", type=float, default=0.025)
    p.add_argument("--tokenizer", choices=("whitespace", "char"), default="whitespace")


def _add_train_args(p):
    p.add_argument("--lr", type=float, default=0.0001,
                   help="AdaGrad learning rate mu; on the synthetic corpus the default "
                        "learns only the label priors (see TrainingConfig.mu)")
    p.add_argument("--lambdas", default="1,1,1",
                   help="comma-separated loss weights lambda1,lambda2,lambda3")
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--grad-clip", type=float, default=5.0)
    p.add_argument("--hidden-dim", type=int, default=128)
    p.add_argument("--attention-dim", type=int, default=None)
    p.add_argument("--head-hidden-dim", type=int, default=None)
    p.add_argument("--lambda-rev", type=float, default=1.0)
    p.add_argument("--finetune-embeddings", action="store_true")
    p.add_argument("--train-frac", type=float, default=0.7)


def _parse_list(raw, flag, kind):
    try:
        return [kind(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated {kind.__name__} values, "
                          f"got {raw!r}") from None


def _training_config(args):
    lambdas = _parse_list(args.lambdas, "--lambdas", float)
    if len(lambdas) != 3:
        raise ConfigError(f"--lambdas needs 3 comma-separated values, got {args.lambdas!r}")
    l1, l2_, l3 = lambdas
    cfg = TrainingConfig(mu=args.lr, lambda1=l1, lambda2=l2_, lambda3=l3,
                         l2_lambda=args.l2, batch_size=args.batch_size,
                         dropout_rate=args.dropout, max_epochs=args.epochs,
                         patience=args.patience, grad_clip=args.grad_clip,
                         seed=args.seed)
    cfg.validate()
    return cfg


def _model_dims(args):
    dims = ModelDims(hidden_dim=args.hidden_dim, attention_dim=args.attention_dim,
                     head_hidden_dim=args.head_hidden_dim, lambda_rev=args.lambda_rev,
                     finetune_embeddings=args.finetune_embeddings)
    dims.validate()
    return dims


def _check_writable(*paths):
    """Raise now the OSError that writing each path after the work would
    raise (a directory, a missing folder, no permission), leaving no file
    behind. A None path is an output that was not asked for."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _prepare_splits(posts, vocab, args):
    splits = corpus_mod.split(posts, train_frac=args.train_frac, seed=args.seed)
    return tuple(corpus_mod.encode(part, vocab, args.tokenizer) for part in splits)


def _check_vocab(model, vocab, model_path, embeddings_path):
    """The embedding file's vocabulary must be the one the checkpoint was
    trained on: its hash, where the checkpoint records one, and its size,
    which indexes the checkpoint's embedding table. A mismatch is a
    DataError that names both files."""
    manifest = model.manifest
    if manifest.get("vocab_hash") and manifest["vocab_hash"] != vocab.content_hash():
        raise DataError(f"{embeddings_path}: embedding vocabulary hash {vocab.content_hash()} "
                        f"does not match vocab hash {manifest['vocab_hash']} of checkpoint "
                        f"{model_path}")
    if len(vocab) != model.embedding.shape[0]:
        raise DataError(f"{embeddings_path}: embedding vocabulary has {len(vocab)} tokens but "
                        f"the embedding table of checkpoint {model_path} has "
                        f"{model.embedding.shape[0]} rows")


def cmd_synth(args) -> int:
    if args.config and args.preset:
        raise ConfigError("--config and --preset cannot be combined: each names the whole "
                          "synth config")
    if args.config:
        cfg = SynthConfig.from_json(args.config)
    elif args.preset == "null":
        cfg = SynthConfig.null_signal()
    else:
        cfg = SynthConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    _check_writable(args.out)
    posts = corpus_mod.synthesize(cfg)
    corpus_mod.save(args.out, posts, m=cfg.m_locations)
    print(f"wrote {len(posts)} posts to {args.out}")
    return 0


def _skipgram_config(args):
    cfg = text_mod.SkipGramConfig(embed_dim=args.embed_dim, window=args.window,
                                  negatives_per_positive=args.negatives,
                                  epochs=args.embed_epochs, learning_rate=args.embed_lr,
                                  seed=args.seed)
    cfg.validate()
    return cfg


def _pretrain_embeddings(posts, args, cfg):
    """(vocabulary, skip-gram table) trained on the posts with the embed args."""
    token_lists = [text_mod.tokenize(p.text, args.tokenizer) for p in posts]
    vocab = text_mod.build_vocab(token_lists, args.vocab_size)
    encoded = [vocab.encode(toks) for toks in token_lists if toks]
    return vocab, text_mod.train_skipgram(encoded, len(vocab), cfg)


def cmd_embed(args) -> int:
    cfg = _skipgram_config(args)
    _check_writable(args.out, text_mod.companion_path(args.out))
    posts, _ = corpus_mod.load_with_meta(args.corpus)
    vocab, table = _pretrain_embeddings(posts, args, cfg)
    text_mod.save_embeddings(args.out, vocab, table)
    print(f"wrote {table.vocab_size} x {table.embed_dim} embeddings to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg, dims = _training_config(args), _model_dims(args)
    _check_writable(args.out, args.log)
    posts, m = corpus_mod.load_with_meta(args.corpus)
    vocab, table = text_mod.load_embeddings(args.embeddings)
    train_posts, dev_posts, _ = _prepare_splits(posts, vocab, args)
    result = train(train_posts, dev_posts, args.variant, cfg, table.matrix, m,
                   dims=dims, vocab_hash=vocab.content_hash())
    result.model.manifest.update(split_seed=args.seed, train_frac=args.train_frac,
                                 tokenizer_mode=args.tokenizer)
    save_checkpoint(args.out, result.model)
    if args.log:
        write_log(args.log, result.log)
    best = f"best dev F1 {result.best_dev_f1:.4f} at epoch {result.best_epoch}" \
        if result.best_epoch >= 0 else "no dev evaluation"
    print(f"trained {args.variant} for {len(result.log)} epochs ({best}); "
          f"checkpoint at {args.out}")
    return 0


def cmd_eval(args) -> int:
    _check_writable(args.out)
    model = load_checkpoint(args.model)
    if args.variant and args.variant != model.variant:
        raise NpdError(f"requested variant {args.variant} but checkpoint holds {model.variant}")
    posts, _ = corpus_mod.load_with_meta(args.corpus)
    vocab, _ = text_mod.load_embeddings(args.embeddings)
    _check_vocab(model, vocab, args.model, args.embeddings)
    parts = corpus_mod.split(posts, train_frac=model.manifest.get("train_frac", 0.7),
                             seed=model.manifest.get("split_seed", 0))
    chosen = {"train": 0, "dev": 1, "test": 2}[args.split]
    encoded = corpus_mod.encode(parts[chosen], vocab, model.manifest["tokenizer_mode"])
    report = evaluate(model, encoded)
    table = format_report_table([report], seed_means=False)
    sys.stdout.write(table)
    if report.gender_accuracy is not None:
        print(f"gender accuracy\t{report.gender_accuracy:.6f}")
    if report.location_accuracy is not None:
        print(f"location accuracy\t{report.location_accuracy:.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0


def cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:  # fail before skip-gram runs
        check_variant(v)
    seeds = _parse_list(args.seeds, "--seeds", int)
    cfg, dims, sg_cfg = _training_config(args), _model_dims(args), _skipgram_config(args)
    _check_writable(args.out)
    posts, m = corpus_mod.load_with_meta(args.corpus)
    vocab, table = _pretrain_embeddings(posts, args, sg_cfg)
    splits = _prepare_splits(posts, vocab, args)
    reports = ablate(splits, variants, seeds, cfg, table.matrix, m, dims=dims, jobs=args.jobs)
    out = format_report_table(reports)
    sys.stdout.write(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0


def _predict_record(fwd, pred, i: int, tokens: list[str]) -> dict:
    """Row i's JSON record, from a forward, its predictions and the post's tokens."""
    rec = {
        "tokens": tokens,
        "emotion_probabilities": {e: float(fwd.emotion_probs[j].value[i, 1])
                                  for j, e in enumerate(EMOTIONS)},
        "predicted_emotions": [e for j, e in enumerate(EMOTIONS) if pred.emotions[i, j]],
    }
    if fwd.gender_prob is not None:
        rec["gender"] = {"male_probability": float(fwd.gender_prob.value[i, 0]),
                         "predicted": GENDERS[pred.male[i]]}
    if fwd.location_probs is not None:
        rec["location"] = {"predicted": int(pred.location[i]),
                           "probabilities": [float(x) for x in fwd.location_probs.value[i]]}
    if fwd.attention:
        rec["attention"] = {name: [float(x) for x in w.value[i, : len(tokens)]]
                            for name, w in fwd.attention.items()}
    return rec


def cmd_predict(args) -> int:
    """Print one JSON record per non-blank stdin line, in input order. A line
    that is not UTF-8 is a DataError naming <stdin>:line.

    Lines are read in chunks of up to PREDICT_BATCH (128) non-blank lines.
    Each chunk takes one eval-mode forward pass, so no graph keeps a
    backward closure, and its records are printed, in input order, before
    the next chunk is read, so memory stays bounded on long inputs.
    """
    model = load_checkpoint(args.model)
    vocab, _ = text_mod.load_embeddings(args.embeddings)
    _check_vocab(model, vocab, args.model, args.embeddings)
    mode = model.manifest["tokenizer_mode"]
    # stdin's bytes where it has them, so UTF-8 is checked under any locale
    lines = text_mod.decode_lines("<stdin>", getattr(sys.stdin, "buffer", sys.stdin))
    texts = filter(None, (line.strip() for _, line in lines))
    # a non-blank line has a non-space character, so it yields at least one token
    while token_lists := [text_mod.tokenize(t, mode)
                          for t in itertools.islice(texts, PREDICT_BATCH)]:
        posts = [corpus_mod.TokenizedPost(ids=vocab.encode(tokens),
                                          emotion_bits=np.zeros(5, dtype=np.int64),
                                          gender_bit=0, location=0)
                 for tokens in token_lists]
        fwd = model.forward(posts, train_mode=False)
        pred = predictions(fwd)
        for i, tokens in enumerate(token_lists):
            print(json.dumps(_predict_record(fwd, pred, i, tokens)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npd",
        description="Adversarial multi-label emotion detection toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-correlation corpus")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--preset", choices=("default", "null"),
                   help="built-in config in place of --config (default: 'default'); "
                        "'null' removes all attribute signal from the text")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="pretrain skip-gram embeddings over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True,
                   help="text embedding file; its binary companion, read by later "
                        "loads, goes to OUT.npde")
    _add_embed_args(p)
    _add_seed(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--variant", required=True, choices=VARIANT_NAMES)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="per-epoch TSV training log path")
    p.add_argument("--tokenizer", choices=("whitespace", "char"), default="whitespace")
    _add_train_args(p)
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--variant", choices=VARIANT_NAMES,
                   help="assert the checkpoint holds this variant")
    p.add_argument("--out", help="also write the report table here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the variant x seed ablation grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variants", required=True,
                   help=f"comma-separated subset of {','.join(VARIANT_NAMES)}")
    p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p.add_argument("--out", help="also write the report table here")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_embed_args(p)
    _add_train_args(p)
    _add_seed(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict", help="read posts from stdin, print one JSON record per "
                       f"non-blank line, in input order, in chunks of up to {PREDICT_BATCH} lines")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory, no permission, a full disk
        print(f"error: {exc.strerror}: {exc.filename}" if exc.filename is not None
              else f"error: {exc}", file=sys.stderr)
        return 1
    except NpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
