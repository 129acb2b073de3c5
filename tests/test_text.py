"""Tokenizer, vocabulary, skip-gram, and embedding persistence tests."""

import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import oracle
from npd import text
from npd.autodiff import _add_rows
from npd.corpus import SynthConfig, synthesize
from npd.errors import ConfigError, ContractError, DataError, DimensionError
from npd.text import (
    EmbeddingTable,
    SkipGramConfig,
    Vocabulary,
    build_vocab,
    load_embeddings,
    save_embeddings,
    tokenize,
    train_skipgram,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize("", "whitespace") == []
        assert tokenize("", "char") == []

    def test_whitespace_mode(self):
        assert tokenize("a b", "whitespace") == ["a", "b"]
        assert tokenize("  a \t b \n", "whitespace") == ["a", "b"]

    def test_char_mode(self):
        assert tokenize("ab c", "char") == ["a", "b", "c"]

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            tokenize("x", "sentencepiece")


class TestVocabulary:
    def test_cap_and_oov(self):
        vocab = build_vocab([["a", "a", "b", "b", "c"]], max_size=2)
        assert len(vocab) == 4  # 2 retained + PAD + OOV
        assert vocab.encode(["c"]) == [vocab.oov_id]
        assert vocab.encode(["a"]) != [vocab.oov_id]

    def test_cap_above_distinct_count(self):
        vocab = build_vocab([["a", "b"]], max_size=100)
        assert len(vocab) == 4

    @pytest.mark.parametrize("corpus, kept, dropped", [
        ([["x", "y", "x", "y", "z"]], "x", "y"),
        ([["<pad>", "y", "<oov>"], ["x", "<pad>", "x"], ["<oov>", "y", "z"]], "y", "x"),
    ], ids=["one-post", "across-posts-with-specials"])
    def test_tie_broken_by_first_occurrence(self, corpus, kept, dropped):
        vocab = build_vocab(corpus, max_size=1)
        assert vocab.id_to_token == ["<pad>", "<oov>", kept]
        assert vocab.encode([dropped]) == [vocab.oov_id]

    @pytest.mark.parametrize("mode, max_size, digest", [
        ("whitespace", 400, "048bc0e012b33576"),
        ("char", 20, "564918b18c978be7"),
    ], ids=["whitespace", "char"])
    def test_golden_content_hash(self, mode, max_size, digest):
        posts = synthesize(SynthConfig(n_posts=300, seed=6))
        vocab = build_vocab([tokenize(p.text, mode) for p in posts], max_size)
        assert len(vocab) == max_size + 2
        assert vocab.content_hash() == digest

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_vocab([], max_size=5)
        with pytest.raises(ConfigError):
            build_vocab([[]], max_size=5)

    def test_special_spellings_in_corpus_keep_their_ids(self):
        vocab = build_vocab([["a", "<pad>", "<pad>"], ["<oov>", "b"]], max_size=10)
        assert vocab.id_to_token == ["<pad>", "<oov>", "a", "b"]
        assert vocab.encode(["<pad>", "<oov>", "b"]) == [0, 1, 3]

    def test_encode_decode_identity(self):
        vocab = build_vocab([["red", "green", "blue"]], max_size=10)
        tokens = ["blue", "red", "green", "red"]
        assert [vocab.id_to_token[i] for i in vocab.encode(tokens)] == tokens


def _expected_init(vocab_size, dim, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((vocab_size, dim)) - 0.5) / dim


class TestSkipGram:
    def test_zero_epochs_returns_init(self):
        cfg = SkipGramConfig(embed_dim=4, epochs=0, seed=3)
        table = train_skipgram([[2, 3, 4]], vocab_size=6, cfg=cfg)
        np.testing.assert_array_equal(table.matrix, _expected_init(6, 4, 3))

    def test_single_token_corpus_untrained(self):
        cfg = SkipGramConfig(embed_dim=4, epochs=3, seed=5)
        table = train_skipgram([[2]], vocab_size=6, cfg=cfg)
        np.testing.assert_array_equal(table.matrix, _expected_init(6, 4, 5))

    def test_deterministic(self):
        corpus = [[2, 3, 4, 5], [3, 2, 5, 4]] * 10
        cfg = SkipGramConfig(embed_dim=8, epochs=2, seed=11)
        a = train_skipgram(corpus, vocab_size=8, cfg=cfg)
        b = train_skipgram(corpus, vocab_size=8, cfg=SkipGramConfig(embed_dim=8, epochs=2, seed=11))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_skipgram([], vocab_size=4, cfg=SkipGramConfig())
        with pytest.raises(ConfigError):
            train_skipgram([[]], vocab_size=4, cfg=SkipGramConfig())

    def test_bad_ids_rejected(self):
        with pytest.raises(ContractError):
            train_skipgram([[9]], vocab_size=4, cfg=SkipGramConfig())

    def test_planted_cooccurrence(self):
        # tokens 2 and 3 always share a window; token 4 never appears near 2
        rng = np.random.default_rng(0)
        corpus = []
        for _ in range(300):
            filler = list(rng.integers(10, 30, size=3))
            corpus.append([2, 3] + filler)
            corpus.append([4] + list(rng.integers(10, 30, size=4)))

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        wins = 0
        for seed in (1, 2, 3):
            cfg = SkipGramConfig(embed_dim=16, window=2, epochs=5, seed=seed)
            mat = train_skipgram(corpus, vocab_size=30, cfg=cfg).matrix
            if cos(mat[2], mat[3]) > cos(mat[2], mat[4]):
                wins += 1
        assert wins >= 2


def _posts(rng, lengths, vocab_size):
    return [[int(x) for x in rng.integers(0, vocab_size, size=n)] for n in lengths]


class TestEpochPairs:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_matches_loop_oracle(self, window):
        rng = np.random.default_rng(window)
        lengths = [0, 1, 2, 30, 2, 1, 0, 30, 7] + list(rng.integers(0, 31, size=40))
        corpus = _posts(rng, lengths, 50)
        got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = text._epoch_pairs(corpus, window, got_rng)
        ref = oracle.epoch_pairs(corpus, window, ref_rng)
        assert len(ref[0]) > 0
        for g, r in zip(got, ref):
            assert g.dtype == np.int64 and np.array_equal(g, r)
        assert got_rng.random() == ref_rng.random()  # same draws consumed

    @pytest.mark.parametrize("lengths", [[], [0, 1, 0], [1]])
    def test_no_pairs_without_a_two_token_post(self, lengths):
        rng = np.random.default_rng(0)
        centers, contexts = text._epoch_pairs(_posts(rng, lengths, 5), 3, rng)
        assert centers.shape == contexts.shape == (0,)
        assert centers.dtype == contexts.dtype == np.int64


class TestAddRows:
    @pytest.mark.parametrize("offset", [0, 1], ids=["own-buffer", "8-bytes-in"])
    @pytest.mark.parametrize("d", [7, 8, 100])  # odd: float64 elements; even: complex128 pairs
    @pytest.mark.parametrize("idx_shape", [(4000,), (800, 5)])
    def test_bit_identical_to_row_add_at(self, idx_shape, d, offset):
        rng = np.random.default_rng(4)
        start = rng.standard_normal((6, d)) * 10.0 ** rng.integers(-8, 8, size=(6, d))
        idx = rng.integers(0, 6, size=idx_shape)  # every row repeats hundreds of times
        shape = idx_shape + (d,)
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        start[:, 1] = vals[..., 1] = -0.0  # column 1 must end -0.0, not 0.0
        start[2, 3], start[4, 0], start[5, 6] = np.nan, np.inf, -np.inf
        pairs = rng.choice(vals.size // d, 6, replace=False)
        vals.reshape(-1, d)[pairs, [0, 0, 0, -1, -1, -1]] = [np.nan, np.inf, -np.inf] * 2
        buf = np.empty(6 * d + offset)
        table = buf[offset:].reshape(6, d)  # C-contiguous, starting 8 * offset bytes in
        table[:] = start
        ref = start.copy()
        np.add.at(ref, idx.reshape(-1), vals.reshape(-1, d))
        _add_rows(table, idx, vals)
        assert table.tobytes() == ref.tobytes()
        assert np.signbit(table[:, 1]).all() and np.isnan(table).any()

    def test_transposed_table_rejected(self):
        table = np.zeros((3, 4)).T
        with pytest.raises(ContractError, match="C-contiguous"):
            _add_rows(table, np.array([0, 1]), np.ones((2, 3)))

    @pytest.mark.parametrize("table_dtype, vals_dtype",
                             [(np.float64, np.int64), (np.float64, np.float32),
                              (np.float32, np.float64)])
    def test_other_dtypes_rejected(self, table_dtype, vals_dtype):
        """The paired view reads bytes as they are, where np.add.at would cast."""
        table = np.zeros((3, 4), dtype=table_dtype)
        with pytest.raises(ContractError, match="float64"):
            _add_rows(table, np.array([0, 1]), np.ones((2, 4), dtype=vals_dtype))
        assert not table.any()

    @pytest.mark.parametrize("vals_shape", [(2, 3), (2, 4, 1), (3, 4), (8,)])
    def test_vals_of_another_shape_rejected(self, vals_shape):
        with pytest.raises(DimensionError, match=r"\(2, 4\)"):
            _add_rows(np.zeros((3, 4)), np.array([0, 1]), np.ones(vals_shape))

    def test_skipgram_output_unchanged_from_row_add_at(self, monkeypatch):
        rng = np.random.default_rng(12)
        corpus = _posts(rng, rng.integers(0, 25, size=120), 60)
        cfg = SkipGramConfig(embed_dim=8, window=3, epochs=2, seed=4)
        assert len(text._epoch_pairs(corpus, 3, np.random.default_rng(0))[0]) > 3 * text._CHUNK
        flat = train_skipgram(corpus, vocab_size=60, cfg=cfg).matrix

        def row_add_at(table, idx, vals):
            np.add.at(table, idx.reshape(-1), vals.reshape(-1, table.shape[1]))

        monkeypatch.setattr(text, "_add_rows", row_add_at)
        rows = train_skipgram(corpus, vocab_size=60, cfg=cfg).matrix
        assert flat.tobytes() == rows.tobytes()


def _whole_chunk_skipgram(corpus, vocab_size, cfg):
    """train_skipgram's loop with each chunk's negatives in one [b x k x d]
    update, as it ran before the block loop; returns the table and each
    epoch's pair count."""
    rng = np.random.default_rng(cfg.seed)
    d, k, lr0 = cfg.embed_dim, cfg.negatives_per_positive, cfg.learning_rate
    w_in = (rng.random((vocab_size, d)) - 0.5) / d
    w_out = np.zeros((vocab_size, d))
    flat = np.concatenate([np.asarray(ids, dtype=np.int64) for ids in corpus])
    noise = np.bincount(flat, minlength=vocab_size).astype(np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    approx_total = max(1, flat.size * 2 * cfg.window) * max(1, cfg.epochs)
    processed, pair_counts = 0, []
    post_order = np.arange(len(corpus))
    for _ in range(cfg.epochs):
        rng.shuffle(post_order)
        centers, contexts = text._epoch_pairs([corpus[i] for i in post_order], cfg.window, rng)
        pair_counts.append(len(centers))
        for start in range(0, len(centers), text._CHUNK):
            c = centers[start : start + text._CHUNK]
            o = contexts[start : start + text._CHUNK]
            b = len(c)
            lr = max(lr0 * (1.0 - processed / approx_total), lr0 * 1e-4)
            processed += b
            neg = np.searchsorted(noise_cdf, rng.random((b, k)))
            vin, vpos, vneg = w_in[c], w_out[o], w_out[neg]
            g_pos = text._sigmoid_stable(np.einsum("bd,bd->b", vin, vpos)) - 1.0
            g_neg = text._sigmoid_stable(np.einsum("bd,bkd->bk", vin, vneg))
            g_neg[neg == o[:, None]] = 0.0
            grad_in = g_pos[:, None] * vpos + np.einsum("bk,bkd->bd", g_neg, vneg)
            _add_rows(w_out, o, -lr * g_pos[:, None] * vin)
            _add_rows(w_out, neg, np.multiply(-lr * g_neg[:, :, None], vin[:, None, :], out=vneg))
            _add_rows(w_in, c, -lr * grad_in)
    return w_in, pair_counts


class TestNegativeBlocks:
    # k = 5 and 7 give blocks of 102 and 73 pairs, so a full chunk ends with a
    # short block (2 and 1 pairs); k > _CHUNK // 2 gives one-pair blocks, and
    # k > _CHUNK one block larger than [_CHUNK x d]
    @pytest.mark.parametrize("k, d, epochs", [(5, 8, 2), (7, 8, 2), (300, 3, 1), (600, 3, 1)])
    def test_bit_identical_to_the_whole_chunk_update(self, k, d, epochs):
        rng = np.random.default_rng(12)
        corpus = _posts(rng, rng.integers(0, 25, size=120), 60)
        cfg = SkipGramConfig(embed_dim=d, window=3, negatives_per_positive=k, epochs=epochs, seed=4)
        ref, pair_counts = _whole_chunk_skipgram(corpus, 60, cfg)
        # more than three chunks per epoch, the last one short
        assert all(n > 3 * text._CHUNK and n % text._CHUNK for n in pair_counts), pair_counts
        assert np.isfinite(ref).all()
        assert train_skipgram(corpus, vocab_size=60, cfg=cfg).matrix.tobytes() == ref.tobytes()

    def test_working_set_within_the_tables_and_seven_chunk_arrays(self):
        rng = np.random.default_rng(5)
        corpus = _posts(rng, rng.integers(0, 25, size=40), 60)
        cfg = SkipGramConfig(embed_dim=100, window=3, negatives_per_positive=5, epochs=1, seed=2)
        assert len(text._epoch_pairs(corpus, 3, np.random.default_rng(0))[0]) > 2 * text._CHUNK
        tables = 2 * 60 * 100 * 8
        chunk_array = text._CHUNK * 100 * 8
        tracemalloc.start()
        try:
            train_skipgram(corpus, vocab_size=60, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chunk's center rows, context rows and center gradient, one
        # block's negative rows, one _add_rows call's values and flat index:
        # six; the seventh holds the epoch's pair arrays and small temporaries
        assert peak <= tables + 7 * chunk_array, (peak - tables) / chunk_array


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        vocab = build_vocab([["alpha", "beta", "gamma"]], max_size=5)
        rng = np.random.default_rng(7)
        table = EmbeddingTable(rng.standard_normal((len(vocab), 6)))
        path = tmp_path / "emb.txt"
        save_embeddings(path, vocab, table)
        vocab2, table2 = load_embeddings(path)
        assert vocab2.id_to_token == vocab.id_to_token
        np.testing.assert_array_equal(table2.matrix, table.matrix)
        assert vocab2.content_hash() == vocab.content_hash()

    def test_header_format(self, tmp_path):
        vocab = build_vocab([["a"]], max_size=1)
        table = EmbeddingTable(np.zeros((3, 2)))
        path = tmp_path / "emb.txt"
        save_embeddings(path, vocab, table)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "3 2"


GOOD_EMBEDDINGS = "3 2\n<pad> 0.0 0.0\n<oov> 0.5 -0.5\nalpha 1.0 2.0\n"

# (case, file text or bytes, line the error must name)
BAD_EMBEDDINGS = [
    ("non-numeric header", GOOD_EMBEDDINGS.replace("3 2", "3 two", 1), 1),
    ("one-field header", GOOD_EMBEDDINGS.replace("3 2", "3", 1), 1),
    ("negative header", GOOD_EMBEDDINGS.replace("3 2", "-3 2", 1), 1),
    ("zero dimension", "3 0\n<pad>\n<oov>\nalpha\n", 1),
    ("non-numeric value", GOOD_EMBEDDINGS.replace("0.5 -0.5", "0.5 x"), 3),
    ("nan value", GOOD_EMBEDDINGS.replace("1.0 2.0", "nan 2.0"), 4),
    ("inf value", GOOD_EMBEDDINGS.replace("0.5 -0.5", "0.5 inf"), 3),
    ("negative inf value", GOOD_EMBEDDINGS.replace("0.0 0.0", "-inf 0.0"), 2),
    ("duplicate token", "4 2" + GOOD_EMBEDDINGS[3:] + "alpha 3.0 4.0\n", 5),
    ("token not UTF-8", GOOD_EMBEDDINGS.encode("utf-8").replace(b"alpha", b"alph\xff"), 4),
    ("too few values", GOOD_EMBEDDINGS.replace("0.5 -0.5", "0.5"), 3),
    ("too many values", GOOD_EMBEDDINGS.replace("0.5 -0.5", "0.5 -0.5 1.5"), 3),
    ("empty value", GOOD_EMBEDDINGS.replace("1.0 2.0", "1.0 "), 4),
    # float() takes these three; the file format does not
    ("underscore in digits", GOOD_EMBEDDINGS.replace("0.5 -0.5", "1_0 -0.5"), 3),
    ("arabic-indic digit", GOOD_EMBEDDINGS.replace("0.5 -0.5", "0.5 \u0661"), 3),
    ("fullwidth digit", GOOD_EMBEDDINGS.replace("0.5 -0.5", "\uff11 -0.5"), 3),
    ("bad value on last line", GOOD_EMBEDDINGS.replace("1.0 2.0", "1.0 y"), 4),
    ("bad value on unterminated last line", GOOD_EMBEDDINGS.replace("1.0 2.0\n", "1.0 y"), 4),
    ("header only, zero rows", "0 2\n", None),
    ("header only, three rows", "3 2\n", None),
    ("specials not first", "3 2\nalpha 1.0 2.0\n<pad> 0.0 0.0\n<oov> 0.5 -0.5\n", None),
]


class TestMalformedEmbeddings:
    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(GOOD_EMBEDDINGS, encoding="utf-8")
        vocab, table = load_embeddings(path)
        assert vocab.id_to_token == ["<pad>", "<oov>", "alpha"]
        np.testing.assert_array_equal(table.matrix[2], [1.0, 2.0])

    @pytest.mark.parametrize("case,content,line", BAD_EMBEDDINGS,
                             ids=[c[0] for c in BAD_EMBEDDINGS])
    def test_rejected_with_path_and_line(self, tmp_path, case, content, line):
        """line None: the fault is the file's, so the error names no line."""
        path = tmp_path / "emb.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        where = "emb.txt: " if line is None else f"emb.txt:{line}: "
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. np.loadtxt's empty-input warning
            with pytest.raises(DataError, match=where):
                load_embeddings(path)

    def test_crlf_file_loads_bit_identically(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(GOOD_EMBEDDINGS.replace("\n", "\r\n").encode("utf-8"))
        vocab, table = load_embeddings(path)
        path.write_text(GOOD_EMBEDDINGS, encoding="utf-8")
        ref_vocab, ref_table = load_embeddings(path)
        assert vocab.id_to_token == ref_vocab.id_to_token
        assert table.matrix.tobytes() == ref_table.matrix.tobytes()

    def test_large_table_round_trips_bit_identically(self, tmp_path):
        """Spans many orders of magnitude, subnormals included, so any parse
        that rounds differently from float() shows."""
        rng = np.random.default_rng(17)
        vocab = Vocabulary([f"t{i}" for i in range(1998)])
        matrix = rng.standard_normal((2000, 100)) * 10.0 ** rng.integers(-320, 300, size=(2000, 100))
        path = tmp_path / "emb.txt"
        save_embeddings(path, vocab, EmbeddingTable(matrix))
        vocab2, table2 = load_embeddings(path)
        assert vocab2.id_to_token == vocab.id_to_token
        np.testing.assert_array_equal(table2.matrix.view(np.int64), matrix.view(np.int64))


def _good_saved(path):
    """Write GOOD_EMBEDDINGS through save_embeddings, which also writes its
    companion, and return the table."""
    table = EmbeddingTable(np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 2.0]]))
    save_embeddings(path, Vocabulary(["alpha"]), table)
    assert path.read_text(encoding="utf-8") == GOOD_EMBEDDINGS
    return table


def _load_error(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as caught:
            load_embeddings(path)
    return str(caught.value)


def _wide_table(seed=23, shape=(300, 40)):
    """Values over many orders of magnitude, subnormals and -0.0 included."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    matrix[0, :3] = [-0.0, 5e-324, -2.2250738585072014e-308]
    return Vocabulary([f"w{i}" for i in range(shape[0] - 2)]), EmbeddingTable(matrix)


class TestCompanion:
    """save_embeddings writes `<path>.npde`; load_embeddings reads the values
    from it only while it matches the text, and otherwise parses the text."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The number of load_embeddings calls that parsed values from the text."""
        calls = []
        real = text._parse_values

        def counting(lines, dim):
            calls.append(dim)
            return real(lines, dim)

        monkeypatch.setattr(text, "_parse_values", counting)
        return calls

    def test_layout(self, tmp_path):
        path = tmp_path / "emb.txt"
        vocab, table = _wide_table()
        save_embeddings(path, vocab, table)
        blob = (tmp_path / "emb.txt.npde").read_bytes()
        assert text.companion_path(path) == f"{path}.npde"
        digest = hashlib.sha256(path.read_bytes()).digest()
        values = table.matrix.astype("<f8").tobytes()
        assert blob[:52] == b"NPD2" + digest + struct.pack("<QQ", 300, 40)
        assert blob[52:52 + len(values)] == values
        assert blob[52 + len(values):] == "".join(
            f"{tok}\n" for tok in vocab.id_to_token).encode("utf-8")

    def test_loads_bit_identically_with_and_without(self, tmp_path, parses):
        path = tmp_path / "emb.txt"
        vocab, table = _wide_table()
        save_embeddings(path, vocab, table)
        fast_vocab, fast = load_embeddings(path)
        assert parses == []  # the values came from the companion
        (tmp_path / "emb.txt.npde").unlink()
        slow_vocab, slow = load_embeddings(path)
        assert parses == [40]
        assert fast_vocab.id_to_token == slow_vocab.id_to_token == vocab.id_to_token
        assert fast.matrix.dtype == slow.matrix.dtype == np.float64
        assert fast.matrix.shape == slow.matrix.shape == (300, 40)
        assert fast.matrix.tobytes() == slow.matrix.tobytes() == table.matrix.tobytes()

    def test_matching_companion_skips_the_line_checks(self, tmp_path, monkeypatch):
        """The rows of a text beside a matching companion are never checked
        line by line; with the companion gone, they are, once."""
        calls = []
        real = text._embedding_rows

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(text, "_embedding_rows", counting)
        path = tmp_path / "emb.txt"
        save_embeddings(path, *_wide_table())
        fast_vocab, fast = load_embeddings(path)
        assert len(calls) == 0
        (tmp_path / "emb.txt.npde").unlink()
        slow_vocab, slow = load_embeddings(path)
        assert len(calls) == 1
        assert fast_vocab.id_to_token == slow_vocab.id_to_token
        assert fast.matrix.tobytes() == slow.matrix.tobytes()

    def test_load_writes_no_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        _good_saved(path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        load_embeddings(path)
        (tmp_path / "emb.txt.npde").unlink()
        load_embeddings(path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == [before[0]]

    @pytest.mark.parametrize("spoil", ["stale digest", "truncated", "header only", "empty",
                                       "other shape", "bad magic", "a directory",
                                       "values-only layout", "token with a space", "repeated token",
                                       "token not UTF-8", "tokens cut short", "extra byte"])
    def test_mismatched_companion_falls_back_to_the_parse(self, tmp_path, parses, spoil):
        path, companion = tmp_path / "emb.txt", tmp_path / "emb.txt.npde"
        vocab, table = _wide_table(shape=(30, 4))
        save_embeddings(path, vocab, table)
        blob = companion.read_bytes()
        tokens_at = 52 + 30 * 4 * 8  # where the token section starts
        if spoil == "stale digest":  # one value edited in the text
            lines = path.read_text(encoding="utf-8").split("\n")
            token, value, *rest = lines[5].split(" ")
            lines[5] = " ".join([token, repr(float(value) + 1.0), *rest])
            path.write_text("\n".join(lines), encoding="utf-8")
        elif spoil == "truncated":  # inside the values
            companion.write_bytes(blob[:tokens_at - 1])
        elif spoil == "values-only layout":  # magic, digest, shape and values only
            companion.write_bytes(b"NPDE" + blob[4:tokens_at])
        elif spoil in ("token with a space", "repeated token", "token not UTF-8"):
            new = {"token with a space": b"w 12", "repeated token": b"w11",
                   "token not UTF-8": b"w\xff2"}[spoil]
            assert blob.count(b"\nw12\n") == 1
            companion.write_bytes(blob.replace(b"\nw12\n", b"\n" + new + b"\n"))
        elif spoil == "tokens cut short":
            companion.write_bytes(blob[:-1])
        elif spoil == "extra byte":
            companion.write_bytes(blob + b"x")
        elif spoil == "header only":
            companion.write_bytes(blob[:52])
        elif spoil == "empty":
            companion.write_bytes(b"")
        elif spoil == "other shape":  # right digest and a length that fits the shape
            companion.write_bytes(blob[:36] + struct.pack("<QQ", 40, 3) + blob[52:])
        elif spoil == "bad magic":
            companion.write_bytes(b"NPDF" + blob[4:])
        else:
            companion.unlink()
            companion.mkdir()
        vocab2, table2 = load_embeddings(path)
        assert parses == [4]
        if companion.is_dir():
            companion.rmdir()
        else:
            companion.unlink()
        ref_vocab, ref_table = load_embeddings(path)
        assert vocab2.id_to_token == ref_vocab.id_to_token
        assert table2.matrix.tobytes() == ref_table.matrix.tobytes()
        if spoil != "stale digest":
            assert table2.matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize("case,content,line", BAD_EMBEDDINGS,
                             ids=[c[0] for c in BAD_EMBEDDINGS])
    def test_edited_after_save_raises_as_without_companion(self, tmp_path, case, content, line):
        path = tmp_path / "emb.txt"
        _good_saved(path)
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        stale = _load_error(path)
        (tmp_path / "emb.txt.npde").unlink()
        assert stale == _load_error(path)

    def test_saved_non_finite_table_raises_on_both_paths(self, tmp_path, parses):
        path = tmp_path / "emb.txt"
        vocab, table = _wide_table(shape=(30, 4))
        table.matrix[7, 2] = np.nan
        save_embeddings(path, vocab, table)
        fast = _load_error(path)
        assert parses == []
        (tmp_path / "emb.txt.npde").unlink()
        assert fast == _load_error(path) == f"{path}:9: non-finite value"

    def test_saved_file_failing_a_line_check_raises_on_both_paths(self, tmp_path, parses):
        """A token with a space in it gives its line one field too many; the
        companion's copy of that token keeps the load off the companion, so
        the line checks run over the text on both paths."""
        path = tmp_path / "emb.txt"
        save_embeddings(path, Vocabulary(["alpha", "two words"]), EmbeddingTable(np.ones((4, 2))))
        fast = _load_error(path)
        (tmp_path / "emb.txt.npde").unlink()
        assert fast == _load_error(path) == f"{path}:5: expected token + 2 values"
