"""Command-line entry point: synth, embed, train, eval, ablate, predict.

embed alone runs skip-gram; train and ablate read the table it wrote
(--embeddings). Option defaults are the configs' (see the option tables),
corpus.TRAIN_FRAC, text.VOCAB_SIZE and text.TOKENIZER_MODES[0]. --seed keys
its command's random draws: skip-gram's via np.random.default_rng(seed), the
rest via named substreams, so identical invocations produce byte-identical
outputs at a fixed BLAS thread count, which the npd command pins (npd.blas).
Exit codes: 0 success, 1 validation error, 2 runtime abort (e.g. divergence).
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
from .errors import COUNT, LOCATIONS, ConfigError, DataError, DivergenceError, NpdError, check
from .evaluation import EVAL_BATCH, evaluate, format_report_table, predictions
from .model import VARIANT, VARIANT_NAMES, ModelDims, load_checkpoint, save_checkpoint
from .seeding import SEED
from .text import TOKENIZER_MODES, SkipGramConfig
from .training import TrainingConfig, ablate, train, write_log

# option -> the config field it sets
_SKIPGRAM_OPTIONS = {"--embed-dim": "embed_dim", "--window": "window",
                     "--negatives": "negatives_per_positive", "--embed-epochs": "epochs",
                     "--embed-lr": "learning_rate"}
_TRAINING_OPTIONS = {"--l2": "l2_lambda", "--batch-size": "batch_size",
                     "--dropout": "dropout_rate", "--epochs": "max_epochs",
                     "--patience": "patience", "--grad-clip": "grad_clip"}
_DIMS_OPTIONS = {"--hidden-dim": "hidden_dim", "--lambda-rev": "lambda_rev"}
_LAMBDAS = ("lambda1", "lambda2", "lambda3")  # the fields --lambdas sets, in order


def _add_options(p, cls, options, **helps):
    """Add each option with its cls field's default, typed as that default, and
    the help that helps gives for the field, if any."""
    for flag, name in options.items():
        default = getattr(cls, name)
        p.add_argument(flag, type=type(default), default=default, help=helps.get(name))


def _config(cls, args, options, **fields):
    """A validated cls of the options' parsed values and fields."""
    cfg = cls(**{name: getattr(args, flag[2:].replace("-", "_")) for flag, name in options.items()},
              **fields)
    cfg.validate()
    return cfg


def _add_seed(p, cls, keys):
    p.add_argument("--seed", type=int, default=cls.seed, help=f"seed of {keys}, in [0, 2**32)")


def _add_train_args(p):
    """The options train and ablate share, apart from --corpus, --embeddings, --out and --seed."""
    p.add_argument("--tokenizer", choices=TOKENIZER_MODES, default=TOKENIZER_MODES[0])
    p.add_argument("--lr", type=float, default=TrainingConfig.mu,
                   help="AdaGrad learning rate mu; on the synthetic corpus the default "
                        "learns only the label priors (see TrainingConfig.mu)")
    p.add_argument("--lambdas", default=",".join(str(getattr(TrainingConfig, n)) for n in _LAMBDAS),
                   help="comma-separated loss weights lambda1,lambda2,lambda3")
    _add_options(p, TrainingConfig, _TRAINING_OPTIONS)
    _add_options(p, ModelDims, _DIMS_OPTIONS,
                 hidden_dim="size of the LSTM state, the attention projections and the "
                            "emotion heads' hidden layers")
    p.add_argument("--finetune-embeddings", action="store_true")
    p.add_argument("--train-frac", type=float, default=corpus_mod.TRAIN_FRAC)


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
    return _config(TrainingConfig, args, _TRAINING_OPTIONS, mu=args.lr,
                   **dict(zip(_LAMBDAS, lambdas)), seed=args.seed)


def _model_dims(args):
    return _config(ModelDims, args, _DIMS_OPTIONS, finetune_embeddings=args.finetune_embeddings)


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


def _read_inputs(args):
    """(vocab, table, m, (train, dev, test)) for train and ablate: the corpus,
    with its 2 or more locations checked, then the embeddings, then the
    corpus split at --seed and encoded with --tokenizer. A training split
    with no token in the vocabulary is a DataError: the embeddings were made
    from another corpus or with another tokenizer."""
    posts, m = corpus_mod.load_with_meta(args.corpus)
    check(LOCATIONS, f"{args.corpus}: location count m", m, DataError)
    vocab, table = text_mod.load_embeddings(args.embeddings)
    splits = tuple(corpus_mod.encode(part, vocab, args.tokenizer) for part in
                   corpus_mod.split(posts, train_frac=args.train_frac, seed=args.seed))
    if splits[0] and all(i == vocab.oov_id for p in splits[0] for i in p.ids):
        raise DataError(f"{args.embeddings}: no token of the training split of {args.corpus} "
                        f"is in the embedding vocabulary under --tokenizer {args.tokenizer}; "
                        "tokenize as npd embed did")
    return vocab, table, m, splits


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


def cmd_embed(args) -> int:
    cfg = _config(SkipGramConfig, args, _SKIPGRAM_OPTIONS, seed=args.seed)
    _check_writable(args.out, text_mod.companion_path(args.out))
    posts, _ = corpus_mod.load_with_meta(args.corpus)
    token_lists = [text_mod.tokenize(p.text, args.tokenizer) for p in posts]
    vocab = text_mod.build_vocab(token_lists, args.vocab_size)
    table = text_mod.train_skipgram([vocab.encode(toks) for toks in token_lists if toks],
                                    len(vocab), cfg)
    text_mod.save_embeddings(args.out, vocab, table)
    print(f"wrote {table.vocab_size} x {table.embed_dim} embeddings to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg, dims = _training_config(args), _model_dims(args)
    _check_writable(args.out, args.log)
    vocab, table, m, (train_posts, dev_posts, _) = _read_inputs(args)
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
    # the split npd train stamped; split's own default stands in for a field not there
    parts = corpus_mod.split(posts, **{arg: model.manifest[key] for arg, key in (
        ("train_frac", "train_frac"), ("seed", "split_seed")) if key in model.manifest})
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
    check(COUNT, "--jobs", args.jobs)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:  # fail before any input is read
        check(VARIANT, "variant", v)
    seeds = _parse_list(args.seeds, "--seeds", int)
    cfg, dims = _training_config(args), _model_dims(args)
    for seed in seeds:  # fail before any input is read, as for the variants
        check(SEED, "seed", seed)
    _check_writable(args.out)
    _, table, m, splits = _read_inputs(args)
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

    Lines are read in chunks of up to EVAL_BATCH non-blank lines.
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
                          for t in itertools.islice(texts, EVAL_BATCH)]:
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
                   help="text embedding file; its binary companion, which caches "
                        "the tokens and values for later loads, goes to OUT.npde")
    p.add_argument("--vocab-size", type=int, default=text_mod.VOCAB_SIZE)
    _add_options(p, SkipGramConfig, _SKIPGRAM_OPTIONS)
    p.add_argument("--tokenizer", choices=TOKENIZER_MODES, default=TOKENIZER_MODES[0])
    _add_seed(p, SkipGramConfig, "skip-gram's initialisation and sampling")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--variant", required=True, choices=VARIANT_NAMES)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="per-epoch TSV training log path")
    _add_train_args(p)
    _add_seed(p, TrainingConfig, "the train/dev/test split and the model's initialisation, "
              "shuffling and dropout")
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
    p.add_argument("--embeddings", required=True)
    p.add_argument("--variants", required=True,
                   help=f"comma-separated subset of {','.join(VARIANT_NAMES)}")
    p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p.add_argument("--out", help="also write the report table here")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_train_args(p)
    _add_seed(p, TrainingConfig, "the train/dev/test split only (--seeds keys each run)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict", help="read posts from stdin, print one JSON record per "
                       f"non-blank line, in input order, in chunks of up to {EVAL_BATCH} lines")
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
