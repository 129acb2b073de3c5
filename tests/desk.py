"""The desk config: the named SynthConfig, TrainingConfig and ModelDims
triple at which the trained pipeline learns what the synthetic corpus plants.

The corpora are 1500 posts at synth seed 0, planted (SYNTH) and null
(NULL). Training runs at hidden size 32, AdaGrad rate 0.03, 15 epochs with
patience 15, and fine-tunes the embedding table; skip-gram, the vocabulary
size, the split and the tokenizer are the CLI defaults. It is a config for
tests and benchmarks, not a CLI default. ablate(SYNTH, variants, seeds)
reports what

    npd embed --corpus C --out E
    npd ablate --corpus C --embeddings E --variants V --seeds S --hidden-dim 32 \
        --epochs 15 --patience 15 --lr 0.03 --finetune-embeddings --jobs 2

prints for a corpus C that `npd synth` wrote from SYNTH, in-process, when
the jobs' processes run one BLAS thread each, as under the npd command (a
run's scores depend on its BLAS thread count). The file imports only npd, so
a benchmark can load it by path, as it loads oracle.py.
"""

from npd import corpus, text, training
from npd.corpus import SynthConfig
from npd.model import ModelDims
from npd.text import SkipGramConfig
from npd.training import TrainingConfig

SYNTH = SynthConfig(n_posts=1500)
NULL = SynthConfig.null_signal(n_posts=1500)
TRAINING = TrainingConfig(mu=0.03, max_epochs=15, patience=15)
DIMS = ModelDims(hidden_dim=32, finetune_embeddings=True)


def ablate(synth: SynthConfig, variants: list[str], seeds: list[int], jobs: int = 2):
    """training.ablate's reports for every (variant, seed) pair on synth's
    corpus, pretrained as `npd embed` does and split and encoded as `npd
    ablate` does, both at --seed TRAINING.seed."""
    posts = corpus.synthesize(synth)
    tokens = [text.tokenize(p.text) for p in posts]
    vocab = text.build_vocab(tokens)
    table = text.train_skipgram([vocab.encode(t) for t in tokens if t], len(vocab),
                                SkipGramConfig(seed=TRAINING.seed))
    splits = [corpus.encode(part, vocab) for part in corpus.split(posts, seed=TRAINING.seed)]
    return training.ablate(splits, variants, seeds, TRAINING, table.matrix, synth.m_locations,
                           dims=DIMS, jobs=jobs)
