"""End-to-end CLI tests on a miniature pipeline.

Runs the real subcommands in-process against small synthetic corpora; the
full-size determinism and trend runs live in the acceptance suite.
"""

import argparse
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from npd import blas, cli, text
from npd.cli import main
from npd.corpus import EMOTIONS, GENDERS, SynthConfig, TokenizedPost, load_with_meta, save
from npd.errors import DataError
from npd.evaluation import EVAL_BATCH
from npd.model import ModelDims, NpdModel, load_checkpoint, save_checkpoint
from npd.training import TrainingConfig


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """synth -> embed -> train(NPD) once; shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("mini")
    cfg = SynthConfig(n_posts=150, neutral_tokens=80, min_len=4, max_len=9,
                      markers_per_attribute_value=5, emotion_markers_per_cell=4,
                      seed=5)
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
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
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
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

    @pytest.mark.parametrize("preset", ["null", "default"])
    def test_config_with_preset_exits_1(self, tmp_path, capsys, preset):
        """--preset is not silently dropped in favour of --config."""
        cfg_path, out = tmp_path / "c.json", tmp_path / "c.jsonl"
        cfg_path.write_text(json.dumps(dataclasses.asdict(SynthConfig(n_posts=20))))
        assert main(["synth", "--config", str(cfg_path), "--preset", preset,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--config" in err and "--preset" in err
        assert not out.exists()


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

    def test_embed_corpus_spelling_the_specials(self, mini_pipeline, tmp_path):
        """Corpus tokens spelled <pad> or <oov> share the specials' rows."""
        lines = mini_pipeline["corpus"].read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"text": "', '"text": "<pad> <oov> ', 1)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        emb = tmp_path / "emb.txt"
        assert main(["embed", "--corpus", str(corpus), "--out", str(emb),
                     "--vocab-size", "400", "--embed-dim", "4", "--embed-epochs", "1"]) == 0
        vocab, _ = text.load_embeddings(str(emb))
        assert vocab.id_to_token[:2] == ["<pad>", "<oov>"]
        assert vocab.id_to_token.count("<pad>") == vocab.id_to_token.count("<oov>") == 1

    def test_ablate_grid(self, mini_pipeline, capsys, tmp_path):
        out_file = tmp_path / "table.tsv"
        assert main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variants", "LSTM,NPD", "--seeds", "1,2", "--hidden-dim", "8",
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
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variants", "SVM", "--seeds", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: variant must be one of LSTM, LSTM_ATTRIBUTES, LSTM_ATTENTION, "
            "LSTM_ADVERSARIAL, NPD_GENDER, NPD_LOCATION, NPD, got 'SVM'\n")

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_diverged_embeddings_exit_2_before_the_write(self, tmp_path, capsys):
        """Skip-gram at the default learning rate diverges on this corpus
        tokenized by character; embed stops with exit 2 and writes no table
        with non-finite rows."""
        cfg_path, corpus, out = tmp_path / "c.json", tmp_path / "c.jsonl", tmp_path / "e.txt"
        cfg_path.write_text(json.dumps(dataclasses.asdict(SynthConfig(n_posts=600, seed=7))))
        assert main(["synth", "--config", str(cfg_path), "--out", str(corpus)]) == 0
        code = main(["embed", "--corpus", str(corpus), "--out", str(out), "--tokenizer", "char",
                     "--embed-epochs", "1", "--embed-dim", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: skip-gram diverged: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [("synth", "--out"), ("eval", "--model"),
                                              ("eval", "--out")],
                             ids=["synth --out", "eval --model", "eval --out"])
    def test_directory_path_exits_1(self, mini_pipeline, tmp_path, capsys, command, flag):
        """An OSError other than a missing file names its cause and path."""
        args = {} if command == "synth" else {
            f"--{k}": str(mini_pipeline[k]) for k in ("model", "corpus", "embeddings")}
        args[flag] = str(tmp_path)
        assert main([command, *(x for item in args.items() for x in item)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: Is a directory: {tmp_path}\n"
        assert captured.out == ""  # eval checks --out before it prints the report

    @pytest.mark.parametrize("argv,work", [
        (["train", "--variant", "NPD", "--out", "{dir}"], "npd.cli.train"),
        (["train", "--variant", "NPD", "--out", "{file}", "--log", "{dir}"], "npd.cli.train"),
        (["ablate", "--variants", "NPD", "--seeds", "1", "--out", "{dir}"], "npd.cli.ablate"),
        (["embed", "--out", "{dir}"], "npd.text.train_skipgram"),
    ], ids=["train --out", "train --log", "ablate --out", "embed --out"])
    def test_output_directory_fails_before_the_work(self, mini_pipeline, tmp_path, monkeypatch,
                                                    capsys, argv, work):
        """An output path that cannot be written ends the command before it
        trains or pretrains anything, and leaves no other output file."""
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(work, never)
        paths = {"dir": str(tmp_path), "file": str(tmp_path / "model.bin")}
        inputs = ["--corpus", str(mini_pipeline["corpus"])]
        if argv[0] != "embed":
            inputs += ["--embeddings", str(mini_pipeline["embeddings"])]
        assert main([a.format(**paths) for a in argv] + inputs) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: Is a directory: {tmp_path}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_companion_fails_before_the_work(self, mini_pipeline, tmp_path,
                                                        monkeypatch, capsys):
        """embed checks the companion's path with the table's, so a companion
        it could not write leaves no table behind."""
        monkeypatch.setattr(text, "train_skipgram", lambda *a: pytest.fail("skip-gram ran"))
        out = tmp_path / "e.txt"
        companion = Path(text.companion_path(out))
        companion.mkdir()
        assert main(["embed", "--corpus", str(mini_pipeline["corpus"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: Is a directory: {companion}\n"
        assert list(tmp_path.iterdir()) == [companion]


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


BAD_VALUE_RUNS = [(command, value) for command in ("eval", "predict")
                  for value in ("x", "nan", "-inf", "1_0")]


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

    @pytest.mark.parametrize("command,value", BAD_VALUE_RUNS,
                             ids=[v if c == "eval" else f"{c}-{v}" for c, v in BAD_VALUE_RUNS])
    def test_bad_embedding_value(self, mini_pipeline, tmp_path, monkeypatch, capsys,
                                 command, value):
        """predict reads only the vocabulary of the file, and still rejects it,
        also beside the companion the unedited file was saved with."""
        lines = mini_pipeline["embeddings"].read_text(encoding="utf-8").splitlines()
        token, _, *rest = lines[3].split(" ")
        lines[3] = " ".join([token, value, *rest])
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs = {"eval": ["--corpus", str(mini_pipeline["corpus"])], "predict": []}[command]
        stale = text.companion_path(mini_pipeline["embeddings"])
        for companion in (None, stale):
            if companion:
                Path(text.companion_path(path)).write_bytes(Path(companion).read_bytes())
            monkeypatch.setattr("sys.stdin", io.StringIO("neutral_0001 neutral_0002\n"))
            assert main([command, "--model", str(mini_pipeline["model"]), *inputs,
                         "--embeddings", str(path)]) == 1
            captured = capsys.readouterr()
            assert f"{path}:4: " in captured.err and captured.out == ""

    def test_non_utf8_embeddings(self, mini_pipeline, tmp_path, capsys):
        lines = mini_pipeline["embeddings"].read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        path = tmp_path / "emb.txt"
        path.write_bytes(b"\n".join(lines))
        assert main(["eval", "--model", str(mini_pipeline["model"]),
                     "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: ") and "UTF-8" in err and "Traceback" not in err

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
    ("negative lambda_rev", _with("lambda_rev", -2.0), "'lambda_rev'"),
    ("NaN lambda_rev", _with("lambda_rev", math.nan), "'lambda_rev'"),
    ("null split_seed", _with("split_seed", None), "'split_seed'"),
    ("string split_seed", _with("split_seed", "abc"), "'split_seed'"),
    ("string train_frac", _with("train_frac", "x"), "'train_frac'"),
    ("train_frac 1", _with("train_frac", 1.0), "'train_frac'"),
    ("number vocab_hash", _with("vocab_hash", 5), "'vocab_hash'"),
    ("split_seed 2**32", _with("split_seed", 2**32), "'split_seed'"),
    ("negative seed", _with("seed", -7), "'seed'"),
    ("bpe tokenizer_mode", _with("tokenizer_mode", "bpe"), "'tokenizer_mode'"),
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
    for extra in (["predict"], ["eval", "--corpus", str(mini_pipeline["corpus"])]):
        code = main([*extra, "--model", str(path),
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
    assert str(path) in err and str(mini_pipeline["embeddings"]) in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_vocab_hash_mismatch_names_both_files(mini_pipeline, tmp_path, monkeypatch, capsys,
                                              command):
    model = load_checkpoint(str(mini_pipeline["model"]))
    model.manifest["vocab_hash"] = "0" * 16
    path = tmp_path / "other-vocab.bin"
    save_checkpoint(str(path), model)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(corpus_texts(mini_pipeline, 3))))
    extra = ["--corpus", str(mini_pipeline["corpus"])] if command == "eval" else []
    code = main([command, "--model", str(path),
                 "--embeddings", str(mini_pipeline["embeddings"]), *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "vocab hash " + "0" * 16 in captured.err and "Traceback" not in captured.err
    assert str(path) in captured.err and str(mini_pipeline["embeddings"]) in captured.err


def test_eval_and_predict_print_the_same_with_any_companion(mini_pipeline, tmp_path,
                                                           monkeypatch, capsys):
    """eval and predict print the same bytes beside the companion embed wrote,
    beside none, and beside a values-only companion of the older layout, which
    the load passes over for the text; embed's text file keeps its format."""
    emb = mini_pipeline["embeddings"]
    vocab, table = text.load_embeddings(emb)
    assert emb.read_text(encoding="utf-8") == f"{len(vocab)} {table.embed_dim}\n" + "".join(
        f"{tok} {' '.join(map(repr, row))}\n"
        for tok, row in zip(vocab.id_to_token, table.matrix.tolist()))
    path = tmp_path / "emb.txt"
    path.write_bytes(emb.read_bytes())
    companion = Path(text.companion_path(path))
    values_only = struct.pack("<4s32sQQ", b"NPDE", hashlib.sha256(emb.read_bytes()).digest(),
                              *table.matrix.shape) + table.matrix.astype("<f8").tobytes()
    checked = []  # the loads that checked the text line by line
    real = text._embedding_rows

    def counting(*args):
        checked.append(args[0])
        return real(*args)

    monkeypatch.setattr(text, "_embedding_rows", counting)
    posts = "\n".join(corpus_texts(mini_pipeline, 5)) + "\n"
    outputs = []
    for blob, checks in ((Path(text.companion_path(emb)).read_bytes(), 0), (None, 2),
                         (values_only, 2)):
        if blob is None:
            companion.unlink()
        else:
            companion.write_bytes(blob)
        checked.clear()
        for command, extra in (("eval", ["--corpus", str(mini_pipeline["corpus"])]),
                               ("predict", [])):
            monkeypatch.setattr("sys.stdin", io.StringIO(posts))
            assert main([command, "--model", str(mini_pipeline["model"]),
                         "--embeddings", str(path), *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(checked) == checks
    assert outputs[0:2] == outputs[2:4] == outputs[4:6]
    assert outputs[0].startswith("Variant\t") and outputs[1].count("\n") == 5


# what build_model writes, and what npd train adds (see npd.model's docstring)
MANIFEST_KEYS = {"variant", "embed_dim", "hidden_dim", "num_locations", "lambda_rev",
                 "finetune_embeddings", "seed", "vocab_hash", "tokenizer_mode", "split_seed",
                 "train_frac"}


def test_train_stamps_the_run_on_the_manifest(mini_pipeline, tmp_path, monkeypatch, capsys):
    """npd train writes the run's split and tokenizer into the checkpoint,
    and eval reads them back: a char-mode checkpoint is evaluated in char
    mode on the split it was trained with."""
    corpus, emb, path = str(mini_pipeline["corpus"]), tmp_path / "emb.txt", tmp_path / "m.bin"
    assert main(["embed", "--corpus", corpus, "--out", str(emb), "--tokenizer", "char",
                 "--embed-dim", "4", "--embed-epochs", "1"]) == 0
    assert main(["train", "--corpus", corpus, "--embeddings", str(emb), "--variant", "LSTM",
                 "--out", str(path), "--tokenizer", "char", "--seed", "3", "--train-frac", "0.6",
                 "--hidden-dim", "4", "--epochs", "1"]) == 0
    manifest = load_checkpoint(str(path)).manifest
    assert set(manifest) == MANIFEST_KEYS
    assert (manifest["split_seed"], manifest["train_frac"], manifest["tokenizer_mode"]) \
        == (3, 0.6, "char")

    seen = {}
    split, encode = cli.corpus_mod.split, cli.corpus_mod.encode

    def spy_split(posts, train_frac, seed):
        seen["split"] = (train_frac, seed)
        return split(posts, train_frac, seed)

    def spy_encode(posts, vocab, mode):
        seen["mode"] = mode
        return encode(posts, vocab, mode)

    monkeypatch.setattr(cli.corpus_mod, "split", spy_split)
    monkeypatch.setattr(cli.corpus_mod, "encode", spy_encode)
    assert main(["eval", "--model", str(path), "--corpus", corpus, "--embeddings", str(emb)]) == 0
    assert seen == {"split": (0.6, 3), "mode": "char"}


def older_checkpoint(mini_pipeline, path, fields, resize=lambda name, arr: arr):
    """mini_pipeline's checkpoint written to path with fields added to its
    manifest and each tensor passed through resize(name, array)."""
    model = load_checkpoint(str(mini_pipeline["model"]))
    tensors = {name: node.value for name, node in model.params.items()}
    tensors["embedding"] = model.embedding
    write_checkpoint(path, {**model.manifest, **fields},
                     {name: resize(name, arr) for name, arr in tensors.items()})


def eval_and_predict(mini_pipeline, monkeypatch, capsys, path):
    """(npd eval's report, npd predict's records) for the checkpoint at path."""
    assert main(["eval", "--model", str(path), "--corpus", str(mini_pipeline["corpus"]),
                 "--embeddings", str(mini_pipeline["embeddings"])]) == 0
    report = capsys.readouterr().out
    stdin = "\n".join(corpus_texts(mini_pipeline, 5)) + "\n"
    return report, run_predict(monkeypatch, capsys, path, mini_pipeline["embeddings"], stdin)


def test_checkpoint_with_dropped_fields_evaluates_unchanged(mini_pipeline, tmp_path,
                                                            monkeypatch, capsys):
    """Checkpoints written before num_emotions and corpus_size left the
    manifest still hold them; they load, evaluate and predict as before."""
    old = tmp_path / "old.bin"
    older_checkpoint(mini_pipeline, old, {"num_emotions": 5, "corpus_size": 150})
    assert eval_and_predict(mini_pipeline, monkeypatch, capsys, old) \
        == eval_and_predict(mini_pipeline, monkeypatch, capsys, mini_pipeline["model"])


def test_checkpoint_with_tied_dropped_sizes_evaluates_unchanged(mini_pipeline, tmp_path,
                                                               monkeypatch, capsys):
    """Checkpoints written before attention_dim and head_hidden_dim left the
    manifest hold both, at hidden_dim unless a run set them; at hidden_dim
    they load, evaluate and predict as before."""
    old = tmp_path / "old.bin"
    hidden = load_checkpoint(str(mini_pipeline["model"])).manifest["hidden_dim"]
    older_checkpoint(mini_pipeline, old, {"attention_dim": hidden, "head_hidden_dim": hidden})
    assert eval_and_predict(mini_pipeline, monkeypatch, capsys, old) \
        == eval_and_predict(mini_pipeline, monkeypatch, capsys, mini_pipeline["model"])


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_with_attention_dim_off_hidden_dim_exits_1(mini_pipeline, tmp_path,
                                                              monkeypatch, capsys, command):
    """hidden_dim now sizes the attention projections, so a checkpoint whose
    run set attention_dim apart from it cannot be rebuilt: a DataError that
    names the file and the first projection's shape."""
    path, attention = tmp_path / "att4.bin", 4
    hidden = load_checkpoint(str(mini_pipeline["model"])).manifest["hidden_dim"]
    older_checkpoint(mini_pipeline, path, {"attention_dim": attention, "head_hidden_dim": hidden},
                     lambda name, arr: arr[..., :attention] if name.startswith("f.att_") else arr)
    monkeypatch.setattr("sys.stdin", io.StringIO("a b\n"))
    extra = ["--corpus", str(mini_pipeline["corpus"])] if command == "eval" else []
    code = main([command, "--model", str(path),
                 "--embeddings", str(mini_pipeline["embeddings"]), *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {path}: tensor f.att_g.w has shape ({hidden}, {attention}), "
                            f"expected ({hidden}, {hidden})\n")


# (bytes of a synth --config file, text the error must contain besides the
# path); a value that SynthConfig's rules reject names the field and the rule
BAD_SYNTH_CONFIGS = [
    (b'{"n_posts": 5', "malformed JSON"),
    (b'\xff{}', "malformed JSON"),
    (b"[1]", "JSON object"),
    (b'"n_posts"', "JSON object"),
    (b'{"n_postz": 5}', "'n_postz'"),
    (b'{"n_posts": "abc"}', "n_posts must be an integer, got 'abc'"),
    (b'{"n_posts": 5.5}', "n_posts must be an integer, got 5.5"),
    (b'{"n_posts": true}', "n_posts must be an integer, got True"),
    (b'{"prevalence": 5}', "prevalence must be 5 numbers in [0, 1], got 5"),
    (b'{"prevalence": [0.1, "a", 0.1, 0.1, 0.1]}', "prevalence must be 5 numbers in [0, 1]"),
    (b'{"prevalence": [0.1, NaN, 0.1, 0.1, 0.1]}', "prevalence must be 5 numbers in [0, 1]"),
    (b'{"gender_tilt": "0.5"}', "gender_tilt must be a finite number, got '0.5'"),
    (b'{"gender_tilt": Infinity}', "gender_tilt must be a finite number, got inf"),
    (b'{"attribute_conditioned_markers": 1}',
     "attribute_conditioned_markers must be true or false, got 1"),
    (b'{"correlation": [[1.0, 1.0], [1.0, 1.0]]}', "unknown SynthConfig field 'correlation'"),
    (b'{"n_posts": -5}', "n_posts must be >= 1, got -5"),
    (b'{"gender_marker_prob": 2}', "gender_marker_prob must be in [0, 1], got 2"),
    (b'{"min_len": 9, "max_len": 3}', "min_len must be <= max_len 3, got 9"),
    (b'{"seed": -1}', "seed must lie in [0, 2**32), got -1"),
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


@pytest.mark.parametrize("field", ["markers_per_attribute_value", "emotion_markers_per_cell",
                                   "neutral_tokens"])
def test_synth_count_below_one_exits_1(tmp_path, capsys, field):
    """A token count of 0 is an error naming the file, not a traceback from
    the rng (markers) or a corpus of tokens the config says do not exist
    (neutral)."""
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"n_posts": 20, field: 0}))
    code = main(["synth", "--config", str(path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {path}: {field} must be >= 1, got 0\n"
    assert not (tmp_path / "c.jsonl").exists()


def test_synth_seed_beyond_32_bits_exits_1(tmp_path, capsys):
    """Seed 2**32 is a ConfigError naming it, not seed 0's corpus."""
    out = tmp_path / "c.jsonl"
    code = main(["synth", "--seed", "4294967296", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: seed must lie in [0, 2**32), got 4294967296\n"
    assert not out.exists()


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
    # a later --variant overrides the NPD the test passes: LSTM has no
    # reversal node, so only the option check can reject the value
    (["--variant", "LSTM", "--lambda-rev", "-1"], "lambda_rev"),
]


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "c", "--embeddings", "e", "--variant", "NPD", "--out", "m"],
    ["ablate", "--corpus", "c", "--embeddings", "e", "--variants", "NPD", "--seeds", "0"],
    ["embed", "--corpus", "c", "--out", "e"],
], ids=lambda argv: argv[0])
def test_cli_defaults_are_the_library_defaults(argv):
    """An option default is read from its config dataclass, corpus.split,
    text.build_vocab or text.tokenize; a command given only its required arguments builds the
    library's defaults, so code that calls the library directly gets the
    CLI's."""
    args = cli.build_parser().parse_args(argv)
    if argv[0] != "embed":
        assert cli._training_config(args) == TrainingConfig()
        assert cli._model_dims(args) == ModelDims()
        split = inspect.signature(cli.corpus_mod.split).parameters
        assert (args.train_frac, args.seed) == (split["train_frac"].default,
                                               split["seed"].default)
    if argv[0] == "embed":
        assert cli._config(text.SkipGramConfig, args, cli._SKIPGRAM_OPTIONS,
                           seed=args.seed) == text.SkipGramConfig()
        assert args.vocab_size == text.VOCAB_SIZE \
            == inspect.signature(text.build_vocab).parameters["max_size"].default
    assert args.tokenizer == inspect.signature(text.tokenize).parameters["mode"].default


def test_ablate_takes_the_options_of_train():
    """ablate trains as train does, over a grid: its options are train's,
    with --variants, --seeds and --jobs in place of --variant and --log."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def options(command):
        return {o for a in commands[command]._actions for o in a.option_strings} - {"-h", "--help"}

    assert options("ablate") - {"--variants", "--seeds", "--jobs"} \
        == options("train") - {"--variant", "--log"}


@pytest.mark.parametrize("command", ["embed", "train", "ablate"])
def test_seed_beyond_32_bits_is_one_message_everywhere(mini_pipeline, tmp_path, monkeypatch,
                                                      capsys, command):
    """Every command that takes --seed rejects 2**32 with synth's message
    (test_synth_seed_beyond_32_bits_exits_1), before it reads an input or
    writes an output."""
    monkeypatch.setattr(cli.corpus_mod, "load_with_meta", lambda *a: pytest.fail("corpus read"))
    out = tmp_path / "out"
    extra = {"embed": ["--corpus", str(mini_pipeline["corpus"])],
             "train": ["--corpus", str(mini_pipeline["corpus"]),
                       "--embeddings", str(mini_pipeline["embeddings"]), "--variant", "NPD"],
             "ablate": ["--corpus", str(mini_pipeline["corpus"]),
                        "--embeddings", str(mini_pipeline["embeddings"]), "--variants", "LSTM",
                        "--seeds", "0"]}[command]
    code = main([command, *extra, "--out", str(out), "--seed", "4294967296"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must lie in [0, 2**32), got 4294967296\n"
    assert not out.exists()


class TestBadTrainingOptions:
    @pytest.mark.parametrize("extra,named", BAD_TRAINING_OPTIONS,
                             ids=[" ".join(e) for e, _ in BAD_TRAINING_OPTIONS])
    def test_train_exits_1(self, mini_pipeline, tmp_path, monkeypatch, capsys, extra, named):
        # train checks its options before it reads the embeddings
        monkeypatch.setattr(text, "load_embeddings", lambda *a: pytest.fail("embeddings read"))
        code = main(["train", "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variant", "NPD", "--out", str(tmp_path / "m.bin"),
                     "--hidden-dim", "4", "--epochs", "1", *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_zero_dimension_embeddings_exit_1(self, mini_pipeline, tmp_path, capsys):
        vocab, _ = text.load_embeddings(str(mini_pipeline["embeddings"]))
        emb = tmp_path / "emb0.txt"
        emb.write_text(f"{len(vocab)} 0\n" + "".join(f"{t}\n" for t in vocab.id_to_token),
                       encoding="utf-8")
        out = tmp_path / "m.bin"
        code = main(["train", "--corpus", str(mini_pipeline["corpus"]), "--embeddings", str(emb),
                     "--variant", "NPD", "--out", str(out), "--hidden-dim", "4", "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {emb}:1: ") and "Traceback" not in err
        assert not out.exists()

    def test_ablate_non_integer_seed_exits_1(self, mini_pipeline, capsys):
        code = main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]),
                     "--variants", "LSTM", "--seeds", "1,x"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--seeds" in err and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_ablate_jobs_below_1_exits_1(self, mini_pipeline, tmp_path, capsys, jobs):
        # small sizes, so that without the check the grid runs in seconds and
        # the test fails on its exit code
        out = tmp_path / "grid.tsv"
        code = main(["ablate", "--corpus", str(mini_pipeline["corpus"]),
                     "--embeddings", str(mini_pipeline["embeddings"]), "--variants", "LSTM",
                     "--seeds", "1", "--hidden-dim", "8", "--epochs", "1",
                     "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--jobs" in err and "Traceback" not in err
        assert not out.exists()


# (subcommand, extra arguments, text the error must contain)
BAD_SIZE_OPTIONS = [
    ("embed", ["--embed-lr", "nan"], "learning_rate"),
    ("embed", ["--embed-lr", "inf"], "learning_rate"),
    ("embed", ["--embed-epochs", "-1"], "epochs"),
    ("embed", ["--seed", "-5"], "seed"),
    ("embed", ["--seed", "4294967296"], "4294967296"),
    ("train", ["--hidden-dim", "0"], "hidden_dim"),
    ("train", ["--hidden-dim", "-3"], "hidden_dim"),
    ("ablate", ["--hidden-dim", "0"], "hidden_dim"),
    ("ablate", ["--lambda-rev", "-1"], "lambda_rev"),
    ("ablate", ["--lr", "nan"], "mu"),
    ("ablate", ["--dropout", "1"], "dropout_rate"),
    ("ablate", ["--seed", "-3"], "seed"),
    ("ablate", ["--seeds", "1,4294967296"], "4294967296"),
    ("train", ["--seed", "-3"], "seed"),
]


@pytest.mark.parametrize("command,extra,named", BAD_SIZE_OPTIONS,
                         ids=[f"{c} {' '.join(e)}" for c, e, _ in BAD_SIZE_OPTIONS])
def test_bad_size_option_exits_1(mini_pipeline, tmp_path, monkeypatch, capsys, command, extra,
                                named):
    out = tmp_path / "out"
    args = ["--corpus", str(mini_pipeline["corpus"]), "--out", str(out)]
    if command == "embed":
        args += ["--embed-dim", "4", "--embed-epochs", "1"]
    else:
        # train and ablate check their options before they read the embeddings
        monkeypatch.setattr(text, "load_embeddings", lambda *a: pytest.fail("embeddings read"))
        args += ["--embeddings", str(mini_pipeline["embeddings"]), "--hidden-dim", "4",
                 "--epochs", "1", *(["--variant", "NPD"] if command == "train"
                                    else ["--variants", "LSTM", "--seeds", "1"])]
    code = main([command, *args, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err and "FAILED" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("header", [True, False], ids=["header m 1", "all locations 0"])
def test_one_location_corpus_exits_1_before_embeddings(mini_pipeline, tmp_path, monkeypatch,
                                                       capsys, header):
    """The location discriminator needs 2 classes or more: train and ablate
    reject a one-location corpus, naming it, before they read the
    embeddings; embed, which reads no label, accepts it."""
    posts, _ = load_with_meta(str(mini_pipeline["corpus"]))
    path = tmp_path / "one.jsonl"
    save(str(path), [dataclasses.replace(p, location=0) for p in posts], m=1 if header else None)
    assert main(["embed", "--corpus", str(path), "--out", str(tmp_path / "e.txt"),
                 "--embed-dim", "4", "--embed-epochs", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(text, "load_embeddings", lambda *a: pytest.fail("embeddings read"))
    out = tmp_path / "out"
    for argv in (["train", "--variant", "LSTM"], ["ablate", "--variants", "LSTM", "--seeds", "0"]):
        code = main([*argv, "--corpus", str(path), "--embeddings", str(mini_pipeline["embeddings"]),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1, argv[0]
        assert captured.err == f"error: {path}: location count m must be >= 2, got 1\n"
        assert "FAILED" not in captured.out and not out.exists()


@pytest.mark.parametrize("argv", [["train", "--variant", "LSTM"],
                                  ["ablate", "--variants", "LSTM", "--seeds", "0"]],
                         ids=lambda argv: argv[0])
def test_tokenizer_mismatch_exits_1_naming_the_inputs(mini_pipeline, tmp_path, monkeypatch,
                                                      capsys, argv):
    """Embeddings made with --tokenizer char hold no whitespace token of the
    corpus: train and ablate at the default tokenizer stop before training,
    naming the embeddings, the corpus and the tokenizer."""
    corpus, emb, out = str(mini_pipeline["corpus"]), str(tmp_path / "char.txt"), tmp_path / "out"
    assert main(["embed", "--corpus", corpus, "--out", emb, "--tokenizer", "char",
                 "--embed-dim", "4", "--embed-epochs", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, argv[0], lambda *a, **k: pytest.fail(f"{argv[0]} ran"))
    code = main([*argv, "--corpus", corpus, "--embeddings", emb, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {emb}: no token of the training split of {corpus} is in the embedding "
        "vocabulary under --tokenizer whitespace; tokenize as npd embed did\n")
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

    @pytest.mark.parametrize("n", [1, EVAL_BATCH, EVAL_BATCH + 2])
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


# a valid line, a blank line, then bytes that are not UTF-8 on physical line 3
BAD_STDIN = b"ok words\n\n\xff\xfe bad\n"
STDIN_STREAMS = {
    "strict": lambda: io.TextIOWrapper(io.BytesIO(BAD_STDIN), encoding="utf-8"),
    "surrogateescape": lambda: io.TextIOWrapper(io.BytesIO(BAD_STDIN), encoding="utf-8",
                                                errors="surrogateescape"),
    "latin-1": lambda: io.TextIOWrapper(io.BytesIO(BAD_STDIN), encoding="latin-1"),
    "text stream": lambda: io.StringIO(BAD_STDIN.decode("utf-8", "surrogateescape")),
}


class TestPredictStdin:
    """predict reads stdin as UTF-8 whatever the stream's own encoding; a line
    that is not UTF-8 is a DataError naming <stdin> and its physical line."""

    def predict(self, mini_pipeline):
        return main(["predict", "--model", str(mini_pipeline["model"]),
                     "--embeddings", str(mini_pipeline["embeddings"])])

    @pytest.mark.parametrize("stream", list(STDIN_STREAMS))
    def test_not_utf8_exits_1(self, mini_pipeline, monkeypatch, capsys, stream):
        monkeypatch.setattr("sys.stdin", STDIN_STREAMS[stream]())
        assert self.predict(mini_pipeline) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: <stdin>:3: not valid UTF-8 (")
        assert captured.out == ""

    def test_utf8_bytes_are_decoded_as_utf8(self, mini_pipeline, monkeypatch, capsys):
        raw = "caf\u00e9 \u00fcber\n".encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="latin-1"))
        assert self.predict(mini_pipeline) == 0
        (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert record["tokens"] == ["caf\u00e9", "\u00fcber"]

    @pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8"},
                                     {"PYTHONIOENCODING": "utf-8:surrogateescape"},
                                     {"LC_ALL": "C"}],
                             ids=["strict", "surrogateescape", "C locale"])
    def test_not_utf8_exits_1_in_the_npd_command(self, mini_pipeline, env):
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")}
        root = Path(__file__).resolve().parents[1]
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                            clean.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-m", "npd", "predict",
                              "--model", str(mini_pipeline["model"]),
                              "--embeddings", str(mini_pipeline["embeddings"])],
                             input=BAD_STDIN, env=clean | env, capture_output=True, timeout=120)
        assert out.returncode == 1 and out.stdout == b""
        assert out.stderr.decode("utf-8").startswith("error: <stdin>:3: not valid UTF-8 ("), \
            out.stderr


class TestEntryPoint:
    """The npd command pins BLAS to one thread unless the environment says
    otherwise; importing npd.cli pins nothing. Each case runs in a fresh
    interpreter, because numpy reads the variables once, when imported."""

    ROOT = Path(__file__).resolve().parents[1]
    SHOW = "import os, npd.blas; print(*(os.environ.get(v) for v in npd.blas.THREAD_VARS))"

    def run(self, *args, **env):
        clean = {k: v for k, v in os.environ.items() if k not in blas.THREAD_VARS}
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, (str(self.ROOT / "src"),
                                                            clean.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *args], env=clean | env, capture_output=True,
                              text=True, timeout=120)

    def test_main_sets_only_unset_variables(self):
        out = self.run("-c", "import npd.__main__, npd.cli; "
                       "assert npd.__main__.main is npd.cli.main; " + self.SHOW,
                       OMP_NUM_THREADS="3")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "3", "1"]

    def test_importing_cli_sets_nothing(self):
        out = self.run("-c", "import npd.cli; " + self.SHOW)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["None"] * 3

    def test_importing_cli_loads_no_process_pool(self):
        # ablate builds its pool only for --jobs > 1; every other command,
        # and the benchmark, would pay for the submodule and subprocess
        out = self.run("-c", "import sys, npd.cli; "
                       "print('concurrent.futures.process' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]

    def test_python_m_npd_and_the_script_run_the_entry_point(self):
        out = self.run("-m", "npd", "--help")
        assert out.returncode == 0 and out.stdout.startswith("usage: npd")
        pyproject = (self.ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert '\nnpd = "npd.__main__:main"\n' in pyproject
