"""Tokenization, frequency-capped vocabulary, and skip-gram embedding pretraining.

The embedding table produced here is the lookup table the encoder consumes;
by default it stays frozen during model training. Skip-gram uses negative
sampling with the unigram^0.75 noise distribution and a linearly decayed
learning rate, processed in vectorized chunks so pretraining on a
~100k-token corpus takes seconds. Each epoch's (center, context) pairs come
from one masked offset grid over all tokens. A chunk's negatives run in
blocks of _CHUNK // k consecutive pairs (at least one), so no array in a
chunk is larger than [_CHUNK x d] unless one pair's k rows are. A chunk
reads before it writes: each block gathers and scores its negative rows
and adds its share to the center rows' gradient; then the context rows'
update, each block's negative update in block order and the center rows'
update go through autodiff._add_rows (np.add.at over one flat element
index, which at an even embed_dim views the rows as complex128 pairs so
each step adds two float64). The blocks are consecutive runs of the
flattened (pair, negative) order in which np.add.at applies updates, so the
table is bit-for-bit the one a single whole-chunk update gives. Everything
is deterministic given a seed.

An embedding file is read with one np.loadtxt pass over all its values,
fed one checked line at a time, so no Python float() runs per value and
the line text never piles up in memory. Its values are decimal or
exponent floats, nan and inf, in ASCII digits.

save_embeddings also writes a binary companion beside the text file, at
`<path>.npde` (companion_path): a cache of the whole parse, so a later
load need not decode, check or parse the text's rows. load_embeddings
reads the text's header line and checks it first, then takes the tokens
and values from the companion when its magic, the SHA-256 of the text's
bytes and its shape match, it holds the whole table, and its token
section holds exactly `rows` tokens, none with a space in it and none
repeated (the conditions the line checks enforce). Otherwise it parses
the text and runs every line check, as it does with no companion. The
checks that PAD and OOV come first, that the header's row count holds and
that every value is finite (naming path:line) run on both paths, so a load
returns the same table and raises the same errors with or without a
companion. Loading never writes a file.

The digest binds the companion to the text bytes save_embeddings wrote
beside it: a text edited after the save no longer matches and is checked
line by line. A companion forged to match an edited text is trusted for
its tokens and its values alike.

Companion layout (little-endian): magic b"NPD2" | SHA-256 of the text
file's bytes (32 bytes) | u64 rows | u64 dim | rows x dim raw float64
values, row by row | the rows' tokens, PAD and OOV included, each in
strict UTF-8 and followed by b"\n", to the end of the file. The
terminator makes a token section cut short or run on by any bytes fail
the token count or the terminator check. A companion with another magic,
such as the values-only b"NPDE" layout, is not read: the load parses the
text until save_embeddings rewrites the pair.
"""

import hashlib
import itertools
import os
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import _add_rows, _sigmoid_stable
from .errors import (COUNT, NONNEGATIVE_INT, POSITIVE, ConfigError, ContractError, DataError,
                     DivergenceError, check, check_fields)
from .seeding import SEED

PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

TOKENIZER_MODES = ("whitespace", "char")  # the first is the default
VOCAB_SIZE = 2000  # build_vocab's default cap on the kept corpus tokens

_COMPANION_MAGIC = b"NPD2"
_COMPANION_HEAD = struct.Struct("<4s32sQQ")  # magic, text digest, rows, dim


def read_lines(path: str):
    """Yield (line number, line) over a UTF-8 text file, decoding one line at a
    time, so bytes that are not UTF-8 raise a DataError naming path:line."""
    with open(path, "rb") as fh:
        yield from decode_lines(path, fh)


def decode_lines(name: str, lines):
    """Yield (line number, line) over lines of bytes or str, numbered from 1.

    A bytes line is decoded as UTF-8; a str line must hold no lone
    surrogate, which is what surrogateescape decoding leaves of bytes that
    are not UTF-8. Either fault is a DataError naming name:line.
    """
    for lineno, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            else:
                line.encode("utf-8")
        except UnicodeError as exc:
            raise DataError(f"{name}:{lineno}: not valid UTF-8 ({exc})") from exc
        yield lineno, line


def tokenize(text: str, mode: str = TOKENIZER_MODES[0]) -> list[str]:
    """Split text into tokens: one per non-whitespace character, or on whitespace runs."""
    if mode == "char":
        return [ch for ch in text if not ch.isspace()]
    if mode == "whitespace":
        return text.split()
    raise ConfigError(f"unknown tokenizer mode {mode!r}")


class Vocabulary:
    """Bijection between retained tokens and ids, with PAD and OOV specials.

    Retains the max_size most frequent corpus tokens; frequency ties are
    broken by first occurrence order. PAD has id 0 and OOV id 1; real
    tokens follow.
    """

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, OOV_TOKEN] + list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")
        self.oov_id = 1

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        oov = self.oov_id
        return [self.token_to_id.get(t, oov) for t in tokens]

    def content_hash(self) -> str:
        """Stable digest of the token list, used to pair checkpoints with embeddings."""
        blob = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def build_vocab(corpus: list[list[str]], max_size: int = VOCAB_SIZE) -> Vocabulary:
    """Keep the max_size most frequent tokens; ties go to the earlier first occurrence.

    Counting is one `collections.Counter` pass over the chained posts. The
    Counter keeps tokens in first-occurrence order, so a stable sort on
    count alone breaks ties by first occurrence. A corpus token spelled
    like PAD or OOV is not kept again: it maps to the special's id.
    """
    check(COUNT, "max_size", max_size)
    counts = Counter(itertools.chain.from_iterable(corpus))
    if not counts:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    for special in (PAD_TOKEN, OOV_TOKEN):
        counts.pop(special, None)
    ranked = sorted(counts, key=counts.__getitem__, reverse=True)
    return Vocabulary(ranked[:max_size])


@dataclass
class EmbeddingTable:
    """Dense [vocab_size x embed_dim] float64 embedding matrix."""

    matrix: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class SkipGramConfig:
    embed_dim: int = 100
    window: int = 5
    negatives_per_positive: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0

    RULES = {"embed_dim": COUNT, "window": COUNT, "negatives_per_positive": COUNT,
             "epochs": NONNEGATIVE_INT, "learning_rate": POSITIVE, "seed": SEED}
    validate = check_fields


# small enough that SGD stays stochastic on desk-scale corpora, large enough
# for the vectorized update to amortize numpy dispatch; negatives run in
# blocks of _CHUNK // k pairs, so their [pairs x k x d] arrays stay within
# [_CHUNK x d]
_CHUNK = 512


def _epoch_pairs(corpus, window, rng):
    """(center, context) id pairs for one epoch, with per-position dynamic windows.

    Each post of two or more tokens draws its spans in corpus order; pairs
    come center by center, contexts left to right.
    """
    posts = [ids for ids in corpus if len(ids) >= 2]
    if not posts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    spans = np.concatenate([rng.integers(1, window + 1, size=len(ids)) for ids in posts])
    lengths = np.array([len(ids) for ids in posts])
    tokens = np.fromiter(itertools.chain.from_iterable(posts), dtype=np.int64, count=len(spans))
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.arange(len(tokens)) - starts  # each token's position in its post
    before = np.minimum(spans, pos)[:, None]  # contexts left of each center, inside its post
    after = np.minimum(spans, np.repeat(lengths, lengths) - 1 - pos)[:, None]
    offsets = np.arange(-window, window + 1)
    keep = (offsets >= -before) & (offsets <= after) & (offsets != 0)
    # grid[i, j] = tokens[i + offsets[j]]; a row-major mask walks it center by center
    grid = np.lib.stride_tricks.sliding_window_view(np.pad(tokens, window), len(offsets))
    return np.repeat(tokens, keep.sum(axis=1)), grid[keep]


def train_skipgram(corpus: list[list[int]], vocab_size: int, cfg: SkipGramConfig) -> EmbeddingTable:
    """Train skip-gram-with-negative-sampling embeddings over encoded posts.

    Deterministic given cfg.seed; zero epochs (or a corpus with no
    co-occurring pairs) returns the random initialization unchanged. A
    table that comes out non-finite raises DivergenceError.
    """
    cfg.validate()
    flat = np.fromiter(itertools.chain.from_iterable(corpus), dtype=np.int64)
    if flat.size == 0:
        raise ConfigError("skip-gram corpus is empty")
    bad = flat[(flat < 0) | (flat >= vocab_size)]
    if bad.size:
        raise ContractError(f"token id {bad[0]} out of range for vocab size {vocab_size}")

    rng = np.random.default_rng(cfg.seed)
    d = cfg.embed_dim
    w_in = (rng.random((vocab_size, d)) - 0.5) / d
    w_out = np.zeros((vocab_size, d))

    counts = np.bincount(flat, minlength=vocab_size).astype(np.float64)
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())  # positive: the corpus is nonempty

    # pair count varies per epoch with the dynamic windows; an upper bound
    # keeps the linear decay schedule deterministic and monotone
    approx_total = max(1, flat.size * 2 * cfg.window) * max(1, cfg.epochs)
    k = cfg.negatives_per_positive
    block = max(1, _CHUNK // k)  # pairs per negative block
    lr0 = cfg.learning_rate
    processed = 0

    post_order = np.arange(len(corpus))
    for _ in range(cfg.epochs):
        rng.shuffle(post_order)
        centers, contexts = _epoch_pairs([corpus[i] for i in post_order], cfg.window, rng)
        for start in range(0, len(centers), _CHUNK):
            c = centers[start : start + _CHUNK]
            o = contexts[start : start + _CHUNK]
            b = len(c)
            lr = max(lr0 * (1.0 - processed / approx_total), lr0 * 1e-4)
            processed += b

            neg = np.searchsorted(noise_cdf, rng.random((b, k)))
            vin = w_in[c]
            vpos = w_out[o]

            g_pos = _sigmoid_stable(np.einsum("bd,bd->b", vin, vpos)) - 1.0
            grad_in = g_pos[:, None] * vpos
            blocks = [slice(lo, lo + block) for lo in range(0, b, block)]
            g_neg = []  # per block: [pairs x k]
            for s in blocks:
                vneg = w_out[neg[s]]
                g = _sigmoid_stable(np.einsum("bd,bkd->bk", vin[s], vneg))
                g[neg[s] == o[s, None]] = 0.0  # accidental hits are not negatives
                grad_in[s] += np.einsum("bk,bkd->bd", g, vneg)
                g_neg.append(g)

            _add_rows(w_out, o, -lr * g_pos[:, None] * vin)
            for s, g in zip(blocks, g_neg):
                _add_rows(w_out, neg[s], -lr * g[:, :, None] * vin[s, None, :])
            _add_rows(w_in, c, -lr * grad_in)

    diverged = ~np.isfinite(w_in).all(axis=1)
    if diverged.any():
        raise DivergenceError(f"skip-gram diverged: {int(diverged.sum())} of {vocab_size} "
                              f"embedding rows are not finite")
    return EmbeddingTable(w_in)


def save_embeddings(path: str, vocab: Vocabulary, table: EmbeddingTable) -> None:
    """Write `<vocab_size> <embed_dim>` then one `token v1 ... vd` line per token,
    then the binary companion of the table and tokens (see the module docstring).

    Floats are written in shortest round-trip form, so load(save(x)) is
    bit-exact.
    """
    if table.vocab_size != len(vocab):
        raise ContractError(f"table rows {table.vocab_size} != vocab size {len(vocab)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.vocab_size} {table.embed_dim}\n")
        for tok, row in zip(vocab.id_to_token, table.matrix.tolist()):
            fh.write(f"{tok} {' '.join(map(repr, row))}\n")
    matrix = np.asarray(table.matrix, dtype="<f8")
    with open(companion_path(path), "wb") as fh:
        fh.write(_COMPANION_HEAD.pack(_COMPANION_MAGIC, _text_digest(path), *matrix.shape))
        matrix.tofile(fh)  # no tobytes() copy of the table
        fh.write("".join(f"{tok}\n" for tok in vocab.id_to_token).encode("utf-8"))


def companion_path(path) -> str:
    """Where save_embeddings writes the binary companion of the text file at path."""
    return f"{os.fspath(path)}.npde"


def _text_digest(path) -> bytes:
    """SHA-256 of the file's bytes, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.digest()


def _companion(path, size: int, dim: int):
    """(tokens, [size x dim] table) from the companion of the text file at
    path, or None unless it matches the text and its tokens would pass the
    line checks (see the module docstring)."""
    try:
        fh = open(companion_path(path), "rb")
    except OSError:  # none, a directory, no permission: parse the text
        return None
    with fh:
        head = fh.read(_COMPANION_HEAD.size)
        if len(head) != _COMPANION_HEAD.size:
            return None
        magic, digest, rows, cols = _COMPANION_HEAD.unpack(head)
        if (magic, rows, cols) != (_COMPANION_MAGIC, size, dim) or digest != _text_digest(path):
            return None
        values = np.fromfile(fh, dtype="<f8", count=size * dim)
        section = fh.read()
    if values.size != size * dim:
        return None
    try:
        tokens = section.decode("utf-8").split("\n")
    except UnicodeError:
        return None
    if tokens.pop() != "" or len(tokens) != size or b" " in section or len(set(tokens)) != size:
        return None
    return tokens, values.astype(np.float64, copy=False).reshape(size, dim)


def _parse_values(lines, dim: int) -> np.ndarray:
    """The dim values after the token of each `token v1 ... vd` line, one
    float64 row per line."""
    return np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None,
                      usecols=range(1, dim + 1), ndmin=2)


def _embedding_rows(path: str, lines, dim: int, first_line: dict[str, int]):
    """Yield the line of each (line number, line) pair in lines, after checking
    that it holds a token and dim values and that its token is new;
    first_line gets token -> line, in file order."""
    for lineno, line in lines:
        if line.count(" ") != dim:
            raise DataError(f"{path}:{lineno}: expected token + {dim} values")
        token = line[:line.index(" ")]
        if token in first_line:
            raise DataError(f"{path}:{lineno}: token {token!r} repeats line {first_line[token]}")
        first_line[token] = lineno
        yield line


def load_embeddings(path: str) -> tuple[Vocabulary, EmbeddingTable]:
    """Read a save_embeddings file; every malformed or non-finite entry, and
    a token seen twice, is a DataError naming path:line.

    The header line is read and checked first. The tokens and values then
    come from the file's companion where it matches the text, with no line
    read past the header; otherwise every line is checked and the values
    are parsed in one np.loadtxt pass, fed one line at a time. The parse
    accepts the float() syntax except underscores between digits and
    non-ASCII digits: a line holding those is rejected as non-numeric, as
    save_embeddings never writes them.
    """
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2 or not all(x.isdecimal() for x in header):
        raise DataError(f"{path}:1: malformed embedding header, expected "
                        f"'<vocab_size> <embed_dim>'")
    size, dim = int(header[0]), int(header[1])
    if dim < 1:
        raise DataError(f"{path}:1: embedding dimension must be >= 1, got {dim}")
    cached = _companion(path, size, dim)
    if cached is not None:
        lines.close()  # no row line is read
        tokens, matrix = cached
    else:
        first_line: dict[str, int] = {}  # token -> its line, in file order
        rows = _embedding_rows(path, lines, dim, first_line)
        first = next(rows, None)  # np.loadtxt warns on empty input
        try:
            matrix = np.empty((0, dim)) if first is None else _parse_values(
                itertools.chain([first], rows), dim)
        except ValueError as exc:
            raise DataError(f"{path}:{_first_unparsed_line(path, dim)}: "
                            f"non-numeric value") from exc
        tokens = list(first_line)
    if len(tokens) != size:
        raise DataError(f"{path}: header declares {size} rows, found {len(tokens)}")
    if tokens[:2] != [PAD_TOKEN, OOV_TOKEN]:
        raise DataError(f"{path}: first rows must be {PAD_TOKEN} and {OOV_TOKEN}")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{int(bad[0]) + 2}: non-finite value")
    vocab = Vocabulary(tokens[2:])
    return vocab, EmbeddingTable(matrix)


def _first_unparsed_line(path: str, dim: int) -> int:
    """The first row line that _parse_values rejects on its own. Called after
    a whole-file parse failed, so every line before it passed the row checks."""
    lines = read_lines(path)
    next(lines)  # the header
    for lineno, line in enumerate(_embedding_rows(path, lines, dim, {}), start=2):
        try:
            _parse_values([line], dim)
        except ValueError:
            return lineno
    raise ContractError(f"{path}: the whole-file parse failed but no single line does")
