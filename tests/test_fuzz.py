"""Byte-mutation fuzzing of every file format the CLI reads.

Each format's bytes are mutated by a seeded numpy generator: cut short, or
1-8 bytes overwritten with random bytes, inserted or deleted at a random
offset. Every load of a mutant must succeed or raise an NpdError, which the
CLI reports with exit code 1; any other exception would reach the user as a
traceback. The malformed-input tests of test_cli.py, test_text.py and
test_corpus.py pin the messages; this test looks only for escapes.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from npd import cli, corpus, model, text
from npd.cli import main
from npd.corpus import SynthConfig
from npd.errors import NpdError

MUTANTS = 500  # per format


def mutants(blob: bytes, rng: np.random.Generator):
    """MUTANTS mutants of blob, each cut at a random offset or with 1-8
    bytes there overwritten with random bytes, inserted or deleted."""
    for _ in range(MUTANTS):
        kind, at, n = rng.integers(4), int(rng.integers(len(blob) + 1)), int(rng.integers(1, 9))
        if kind == 0:
            yield blob[:at]
        elif kind == 1:
            yield blob[:at] + rng.bytes(n) + blob[at + n:]
        elif kind == 2:
            yield blob[:at] + rng.bytes(n) + blob[at:]
        else:
            yield blob[:at] + blob[at + n:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The files a small synth -> embed -> train(NPD) run reads or writes,
    and predict's stdin: the first posts' texts, one per line."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {"config": root / "synth.json", "corpus": root / "corpus.jsonl",
           "embeddings": root / "emb.txt", "model": root / "model.bin", "stdin": root / "stdin"}
    cfg = SynthConfig(n_posts=60, neutral_tokens=30, min_len=3, max_len=6,
                      markers_per_attribute_value=2, emotion_markers_per_cell=2, seed=4)
    out["config"].write_text(json.dumps(dataclasses.asdict(cfg)))
    assert main(["synth", "--config", str(out["config"]), "--out", str(out["corpus"])]) == 0
    assert main(["embed", "--corpus", str(out["corpus"]), "--out", str(out["embeddings"]),
                 "--embed-dim", "4", "--embed-epochs", "1"]) == 0
    assert main(["train", "--corpus", str(out["corpus"]), "--embeddings", str(out["embeddings"]),
                 "--variant", "NPD", "--out", str(out["model"]), "--hidden-dim", "4",
                 "--epochs", "1"]) == 0
    out["companion"] = Path(text.companion_path(out["embeddings"]))
    posts, _ = corpus.load_with_meta(str(out["corpus"]))
    out["stdin"].write_text("".join(f"{p.text}\n" for p in posts[:8]), encoding="utf-8")
    return out


def load_companion(files, path):
    """load_embeddings of an intact copy of the text beside the companion at path."""
    shutil.copy(files["embeddings"], path.with_suffix(""))
    text.load_embeddings(str(path.with_suffix("")))


def predict(files, path):
    """npd predict, without main's error report, with path's bytes as stdin."""
    args = argparse.Namespace(model=str(files["model"]), embeddings=str(files["embeddings"]))
    with mock.patch("sys.stdin", io.BytesIO(path.read_bytes())), \
            contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_predict(args)


# format -> (the file of `files` it mutates, a load of the mutant written at path)
FORMATS = {
    "corpus": ("corpus", lambda files, path: corpus.load_with_meta(str(path))),
    "synth config": ("config",
                     lambda files, path: corpus.synthesize(SynthConfig.from_json(str(path)))),
    "embedding text": ("embeddings", lambda files, path: text.load_embeddings(str(path))),
    "embedding companion": ("companion", load_companion),
    "checkpoint": ("model", lambda files, path: model.load_checkpoint(str(path))),
    "predict stdin": ("stdin", predict),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_mutant_loads_or_raises_npd_error(files, tmp_path, fmt):
    source, load = FORMATS[fmt]
    path = tmp_path / files[source].name
    escapes = []
    for i, mutant in enumerate(mutants(files[source].read_bytes(), np.random.default_rng(0))):
        path.write_bytes(mutant)
        try:
            load(files, path)
        except NpdError:
            pass
        except Exception as exc:  # the CLI would print its traceback
            escapes.append(f"mutant {i}: {type(exc).__name__}: {exc}")
    assert escapes == []
