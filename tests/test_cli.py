"""End-to-end CLI tests on a miniature pipeline.

Runs the real subcommands in-process against small synthetic corpora; the
full-size determinism and trend runs live in the acceptance suite.
"""

import io
import json
import math
import struct

import numpy as np
import pytest

from npd import text
from npd.cli import PREDICT_BATCH, main
from npd.corpus import EMOTIONS, GENDERS, SynthConfig, TokenizedPost, load_with_meta
from npd.errors import DataError
from npd.model import NpdModel, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """synth -> embed -> train(NPD) once; shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("mini")
    cfg = SynthConfig(n_posts=150, neutral_tokens=80, min_len=4, max_len=9,
                      markers_per_attribute_value=5, emotion_markers_per_cell=4,
                      seed=5)
    cfg_path = root / "synth.json"
    cfg.to_json(cfg_path)
    corpus = root / "corpus.jsonl"
    emb = root / "emb.txt"
    model = root / "model.bin"
    assert main(["synth", "--config", str(cfg_path), "--out", str(corpus)]) == 0
    assert main(["embed", "--corpus", str(corpus), "--out", str(emb),
                 "--vocab-size", "400", "--embed-dim", "12", "--embed-epochs", "1"]) == 0
    assert main(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                 "--variant", "NPD", "--out", str(model),
                 "--hidden-dim", "8", "--epochs", "2", "--batch-size", "16",
                 "--lr", "0.05", "--log", str(root / "train.log")]) == 0
    return {"root": root, "corpus": corpus, "embeddings": emb, "model": model,
            "config": cfg_path}


class TestSynth:
    def test_same_seed_identical_files(self, tmp_path):
        cfg = SynthConfig(n_posts=60, neutral_tokens=50, seed=3)
        cfg_path = tmp_path / "c.json"
        cfg.to_json(cfg_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["synth", "--config", str(cfg_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_null_preset(self, tmp_path):
        out = tmp_path / "null.jsonl"
        assert main(["synth", "--preset", "null", "--seed", "1",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "gmark_" not in text and "lmark_" not in text


class TestPipeline:
    def test_train_log_format(self, mini_pipeline):
        lines = (mini_pipeline["root"] / "train.log").read_text().strip().split("\n")
        assert len(lines) == 2
        cells = lines[0].split("\t")
        assert cells[0] == "0" and len(cells) == 5

    def test_eval_report_shape(self, mini_pipeline, capsys):
        assert main(["eval", "--model", str(mini_pipeline["model"]),
                     "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"])]) == 0
        out = capsys.readouterr().out
        header = out.strip().split("\n")[0].split("\t")
        assert header == ["Variant", "Seed", "Happiness", "Sadness", "Anger",
                          "Surprise", "Fear", "Average"]
        row = out.strip().split("\n")[1].split("\t")
        assert row[0] == "NPD"
        assert len(row) == 8

    def test_eval_variant_mismatch_exit_1(self, mini_pipeline, capsys):
        code = main(["eval", "--model", str(mini_pipeline["model"]),
                     "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variant", "LSTM"])
        assert code == 1
        err = capsys.readouterr().err
        assert "LSTM" in err and "NPD" in err

    def test_predict_attention_sums_to_one(self, mini_pipeline, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("neutral_0001 gmark_f_00 neutral_0002\n"))
        assert main(["predict", "--model", str(mini_pipeline["model"]),
                     "--embeddings", str(mini_pipeline["embeddings"])]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert set(rec["emotion_probabilities"]) == {
            "happiness", "sadness", "anger", "surprise", "fear"}
        assert "gender" in rec and "location" in rec
        for weights in rec["attention"].values():
            assert len(weights) == 3
            assert abs(sum(weights) - 1.0) < 1e-6

    def test_ablate_grid(self, mini_pipeline, capsys, tmp_path):
        out_file = tmp_path / "table.tsv"
        assert main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--variants", "LSTM,NPD", "--seeds", "1,2",
                     "--vocab-size", "400", "--embed-dim", "12",
                     "--embed-epochs", "1", "--hidden-dim", "8",
                     "--epochs", "1", "--batch-size", "16",
                     "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.strip().split("\n")
        data_rows = [l for l in lines[1:] if l.split("\t")[1] not in ("mean",)]
        assert len(data_rows) == 4  # 2 variants x 2 seeds
        assert out_file.read_text(encoding="utf-8") == stdout


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["embed", "--corpus", "/nonexistent/c.jsonl",
                     "--out", "/tmp/e.txt"]) == 1
        assert "/nonexistent/c.jsonl" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--out", "/tmp/x.jsonl", "--frobnicate"]) == 1

    def test_unknown_variant_in_ablate(self, mini_pipeline, capsys):
        assert main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--variants", "SVM", "--seeds", "1"]) == 1
        assert "SVM" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def checkpoint_cuts(blob: bytes) -> dict:
    """Byte lengths at which to cut a checkpoint: the start of every section
    up to the first tensor's data, points inside sections, and the start of
    the second tensor. Offsets follow the layout in npd.model's docstring."""
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    name_at = 24 + mlen
    (nlen,) = struct.unpack_from("<Q", blob, name_at)
    (ndim,) = struct.unpack_from("<Q", blob, name_at + 8 + nlen)
    dims_at = name_at + 16 + nlen
    data_at = dims_at + 8 * ndim
    size = int(np.prod(struct.unpack_from(f"<{ndim}Q", blob, dims_at)))
    return {"empty file": 0, "inside magic": 2, "at version": 4, "at manifest length": 8,
            "at manifest": 16, "inside manifest": 16 + mlen // 2,
            "at tensor count": 16 + mlen, "at tensor name length": name_at,
            "at tensor name": name_at + 8, "at tensor rank": name_at + 8 + nlen,
            "at tensor dims": dims_at, "at tensor data": data_at,
            "inside tensor data": data_at + 4 * size + 3,
            "at second tensor": data_at + 8 * size, "last byte missing": len(blob) - 1}


# (where the file ends, the section the error must name)
TRUNCATIONS = [
    ("empty file", "magic"), ("inside magic", "magic"), ("at version", "version"),
    ("at manifest length", "manifest length"), ("at manifest", "manifest"),
    ("inside manifest", "manifest"), ("at tensor count", "tensor count"),
    ("at tensor name length", "tensor 0 name length"), ("at tensor name", "tensor 0 name"),
    ("at tensor rank", "tensor 'embedding' rank"), ("at tensor dims", "tensor 'embedding' dims"),
    ("at tensor data", "tensor 'embedding' data"),
    ("inside tensor data", "tensor 'embedding' data"),
    ("at second tensor", "tensor 1 name length"), ("last byte missing", "data"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("case,section", TRUNCATIONS, ids=[c for c, _ in TRUNCATIONS])
    def test_truncated_checkpoint(self, mini_pipeline, tmp_path, capsys, case, section):
        blob = mini_pipeline["model"].read_bytes()
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[: checkpoint_cuts(blob)[case]])
        with pytest.raises(DataError, match="truncated") as caught:
            load_checkpoint(str(path))
        assert str(path) in str(caught.value) and section in str(caught.value)
        assert main(["eval", "--model", str(path), "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"])]) == 1
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "nan", "-inf"])
    def test_bad_embedding_value(self, mini_pipeline, tmp_path, capsys, value):
        lines = mini_pipeline["embeddings"].read_text(encoding="utf-8").splitlines()
        token, _, *rest = lines[3].split(" ")
        lines[3] = " ".join([token, value, *rest])
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["eval", "--model", str(mini_pipeline["model"]),
                     "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(path)]) == 1
        assert f"{path}:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_checkpoint_tensor(self, mini_pipeline, tmp_path, capsys, value):
        model = load_checkpoint(str(mini_pipeline["model"]))
        model.params["f.lstm.wh"].value[0, 0] = float(value)
        path = tmp_path / "bad.bin"
        save_checkpoint(str(path), model)
        with pytest.raises(DataError, match="non-finite") as caught:
            load_checkpoint(str(path))
        assert str(path) in str(caught.value) and "'f.lstm.wh'" in str(caught.value)
        assert main(["eval", "--model", str(path), "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"])]) == 1
        assert "non-finite" in capsys.readouterr().err


def write_checkpoint(path, manifest, tensors):
    """A checkpoint in the layout of npd.model's docstring, with any JSON manifest."""
    blob = json.dumps(manifest).encode("utf-8")
    parts = [b"NPDC", struct.pack("<IQ", 1, len(blob)), blob, struct.pack("<Q", len(tensors))]
    for name, arr in sorted(tensors.items()):
        nb = name.encode("utf-8")
        parts += [struct.pack("<Q", len(nb)), nb, struct.pack("<Q", arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f8").tobytes()]
    path.write_bytes(b"".join(parts))


def _with(key, value):
    return lambda m, t: ({**m, key: value}, t)


def _without(key):
    return lambda m, t: ({k: v for k, v in m.items() if k != key},
                         {k: v for k, v in t.items() if k != key})


# (what is wrong, an edit of the good (manifest, tensors), text the error must contain)
BAD_CHECKPOINTS = [
    ("no embedding tensor", _without("embedding"), "'embedding'"),
    ("1-D embedding", lambda m, t: (m, {**t, "embedding": t["embedding"][0]}), "'embedding'"),
    ("manifest a list", lambda m, t: ([m], t), "JSON object"),
    ("no variant", _without("variant"), "'variant'"),
    ("unknown variant", _with("variant", "BERT"), "'variant'"),
    ("string hidden_dim", _with("hidden_dim", "a"), "'hidden_dim'"),
    ("negative hidden_dim", _with("hidden_dim", -1), "'hidden_dim'"),
    ("no tokenizer_mode", _without("tokenizer_mode"), "'tokenizer_mode'"),
    ("embed_dim off the embedding", _with("embed_dim", 5), "embed_dim"),
]


@pytest.mark.parametrize("edit,named", [row[1:] for row in BAD_CHECKPOINTS],
                         ids=[row[0] for row in BAD_CHECKPOINTS])
def test_bad_checkpoint_exits_1(mini_pipeline, tmp_path, monkeypatch, capsys, edit, named):
    model = load_checkpoint(str(mini_pipeline["model"]))
    tensors = {name: node.value for name, node in model.params.items()}
    tensors["embedding"] = model.embedding
    path = tmp_path / "bad.bin"
    write_checkpoint(path, *edit(model.manifest, tensors))
    with pytest.raises(DataError) as caught:
        load_checkpoint(str(path))
    assert str(path) in str(caught.value) and named in str(caught.value)
    monkeypatch.setattr("sys.stdin", io.StringIO("a b\n"))
    code = main(["predict", "--model", str(path),
                 "--embeddings", str(mini_pipeline["embeddings"])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("vocab_hash", ["kept", "empty"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_embedding_rows_off_the_vocabulary_exit_1(mini_pipeline, tmp_path, monkeypatch, capsys,
                                                   command, vocab_hash):
    """A checkpoint whose embedding table is smaller than the vocabulary
    would index past its end; the hash alone cannot tell, as it hashes the
    vocabulary only."""
    model = load_checkpoint(str(mini_pipeline["model"]))
    vocab_size = model.embedding.shape[0]
    if vocab_hash == "empty":
        model.manifest["vocab_hash"] = ""
    model.embedding = model.embedding[:5]
    path = tmp_path / "cut.bin"
    save_checkpoint(str(path), model)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(corpus_texts(mini_pipeline, 3))))
    extra = ["--corpus", str(mini_pipeline["corpus"])] if command == "eval" else []
    code = main([command, "--model", str(path),
                 "--embeddings", str(mini_pipeline["embeddings"]), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{vocab_size} tokens" in err and "5 rows" in err and "Traceback" not in err


# (bytes of a synth --config file, text the error must contain besides the path)
BAD_SYNTH_CONFIGS = [
    (b'{"n_posts": 5', "malformed JSON"),
    (b'\xff{}', "malformed JSON"),
    (b"[1]", "JSON object"),
    (b'"n_posts"', "JSON object"),
    (b'{"n_postz": 5}', "'n_postz'"),
    (b'{"n_posts": "abc"}', "'n_posts'"),
    (b'{"n_posts": 5.5}', "'n_posts'"),
    (b'{"n_posts": true}', "'n_posts'"),
    (b'{"prevalence": 5}', "'prevalence'"),
    (b'{"prevalence": [0.1, "a", 0.1, 0.1, 0.1]}', "'prevalence'"),
    (b'{"prevalence": [0.1, NaN, 0.1, 0.1, 0.1]}', "'prevalence'"),
    (b'{"gender_tilt": "0.5"}', "'gender_tilt'"),
    (b'{"gender_tilt": Infinity}', "'gender_tilt'"),
    (b'{"attribute_conditioned_markers": 1}', "'attribute_conditioned_markers'"),
    (b'{"correlation": "none"}', "'correlation'"),
    (b'{"correlation": [[1.0, 1.0], [1.0]]}', "'correlation'"),
]


@pytest.mark.parametrize("blob,named", BAD_SYNTH_CONFIGS,
                         ids=[b.decode("utf-8", "replace") for b, _ in BAD_SYNTH_CONFIGS])
def test_bad_synth_config_exits_1(tmp_path, capsys, blob, named):
    path = tmp_path / "synth.json"
    path.write_bytes(blob)
    code = main(["synth", "--config", str(path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


# (extra training arguments, text the error must contain)
BAD_TRAINING_OPTIONS = [
    (["--lambdas", "a,b,c"], "--lambdas"),
    (["--lambdas", "1,nan,1"], "lambda2"),
    (["--lambdas", "1,1,inf"], "lambda3"),
    (["--lr", "nan"], "mu"),
    (["--lr", "inf"], "mu"),
    (["--l2", "nan"], "l2_lambda"),
    (["--grad-clip", "inf"], "grad_clip"),
    (["--grad-clip", "nan"], "grad_clip"),
    (["--lambda-rev", "nan"], "lambda_rev"),
]


class TestBadTrainingOptions:
    @pytest.mark.parametrize("extra,named", BAD_TRAINING_OPTIONS,
                             ids=[" ".join(e) for e, _ in BAD_TRAINING_OPTIONS])
    def test_train_exits_1(self, mini_pipeline, tmp_path, capsys, extra, named):
        code = main(["train", "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variant", "NPD", "--out", str(tmp_path / "m.bin"),
                     "--hidden-dim", "4", "--epochs", "1", *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_ablate_non_integer_seed_exits_1(self, mini_pipeline, capsys):
        code = main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--variants", "LSTM", "--seeds", "1,x"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--seeds" in err and "Traceback" not in err


# (subcommand, extra arguments, text the error must contain)
BAD_SIZE_OPTIONS = [
    ("embed", ["--embed-lr", "nan"], "learning_rate"),
    ("embed", ["--embed-lr", "inf"], "learning_rate"),
    ("embed", ["--embed-epochs", "-1"], "epochs"),
    ("train", ["--hidden-dim", "0"], "hidden_dim"),
    ("train", ["--hidden-dim", "-3"], "hidden_dim"),
    ("train", ["--attention-dim", "0"], "attention_dim"),
    ("train", ["--head-hidden-dim", "0"], "head_hidden_dim"),
]


@pytest.mark.parametrize("command,extra,named", BAD_SIZE_OPTIONS,
                         ids=[f"{c} {' '.join(e)}" for c, e, _ in BAD_SIZE_OPTIONS])
def test_bad_size_option_exits_1(mini_pipeline, tmp_path, capsys, command, extra, named):
    out = tmp_path / "out"
    args = ["--corpus", str(mini_pipeline["corpus"]), "--out", str(out)]
    if command == "embed":
        args += ["--embed-dim", "4", "--embed-epochs", "1"]
    else:
        args += ["--embeddings", str(mini_pipeline["embeddings"]), "--variant", "NPD",
                 "--hidden-dim", "4", "--epochs", "1"]
    code = main([command, *args, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def lstm_checkpoint(mini_pipeline):
    """A one-epoch LSTM checkpoint on the mini corpus: no attention, no discriminators."""
    path = mini_pipeline["root"] / "lstm.bin"
    assert main(["train", "--corpus", str(mini_pipeline["corpus"]),
                 "--embeddings", str(mini_pipeline["embeddings"]),
                 "--variant", "LSTM", "--out", str(path),
                 "--hidden-dim", "8", "--epochs", "1", "--batch-size", "16",
                 "--lr", "0.05"]) == 0
    return path


def run_predict(monkeypatch, capsys, model_path, embeddings, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["predict", "--model", str(model_path), "--embeddings", str(embeddings)]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def corpus_texts(mini_pipeline, n):
    posts, _ = load_with_meta(str(mini_pipeline["corpus"]))
    return [p.text for p in posts[:n]]


class TestBatchedPredict:
    @pytest.mark.parametrize("variant", ["NPD", "LSTM"])
    def test_records_match_one_post_forwards(self, mini_pipeline, lstm_checkpoint,
                                             monkeypatch, capsys, variant):
        model_path = mini_pipeline["model"] if variant == "NPD" else lstm_checkpoint
        texts = corpus_texts(mini_pipeline, 130)  # crosses the 128-line chunk boundary
        lines = []
        for i, t in enumerate(texts):
            lines.append(t)
            if i % 9 == 0:
                lines.append("   " if i % 2 else "")
        records = run_predict(monkeypatch, capsys, model_path,
                              mini_pipeline["embeddings"], "\n".join(lines) + "\n")
        assert len(records) == len(texts)

        model = load_checkpoint(str(model_path))
        vocab, _ = text.load_embeddings(str(mini_pipeline["embeddings"]))
        for t, rec in zip(texts, records):
            tokens = text.tokenize(t, "whitespace")
            assert rec["tokens"] == tokens  # input order
            post = TokenizedPost(ids=vocab.encode(tokens), emotion_bits=np.zeros(5, np.int64),
                                 gender_bit=0, location=0)
            fwd = model.forward([post])
            probs = [fwd.emotion_probs[j].value[0, 1] for j in range(len(EMOTIONS))]
            np.testing.assert_allclose(
                [rec["emotion_probabilities"][e] for e in EMOTIONS], probs, rtol=0, atol=1e-12)
            assert rec["predicted_emotions"] == [e for e, p in zip(EMOTIONS, probs) if p > 0.5]
            if variant == "LSTM":
                assert not {"gender", "location", "attention"} & set(rec)
                continue
            p_male = fwd.gender_prob.value[0, 0]
            assert abs(rec["gender"]["male_probability"] - p_male) <= 1e-12
            assert rec["gender"]["predicted"] == GENDERS[int(p_male > 0.5)]
            loc = fwd.location_probs.value[0]
            np.testing.assert_allclose(rec["location"]["probabilities"], loc, rtol=0, atol=1e-12)
            assert rec["location"]["predicted"] == int(loc.argmax())
            assert set(rec["attention"]) == set(fwd.attention)
            for name, w in fwd.attention.items():
                np.testing.assert_allclose(rec["attention"][name], w.value[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, PREDICT_BATCH, PREDICT_BATCH + 2])
    def test_one_forward_per_chunk(self, mini_pipeline, monkeypatch, capsys, n):
        calls = []
        original = NpdModel.forward

        def counting_forward(self, batch, *args, **kwargs):
            calls.append(len(batch))
            return original(self, batch, *args, **kwargs)

        monkeypatch.setattr(NpdModel, "forward", counting_forward)
        texts = corpus_texts(mini_pipeline, n)
        records = run_predict(monkeypatch, capsys, mini_pipeline["model"],
                              mini_pipeline["embeddings"], "\n".join(texts) + "\n")
        assert len(records) == n
        assert len(calls) == math.ceil(n / 128)
        assert sum(calls) == n
