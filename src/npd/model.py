"""The emotion model: shared LSTM encoder, per-attribute attention pooling,
gradient-reversed gender/location discriminators, and five 2-class emotion
heads, with every ablation variant wired from the same parts.

Forward passes are batched, and no batch is padded. The posts' lengths
are turned once per batch into a packing (autodiff.pack) that lists the
batch's L live (step, post) pairs, and each pair's token id is read from
the posts' concatenated ids. The whole encoder runs on those pairs only:
the fused lstm_seq node takes the [V x e] embedding table and the pairs'
token ids, projects the row of each distinct id onto the gates with their
bias once, gathers each pair's gate row from those and runs each step on
the posts still running, returning the [L x h] state after every pair; the
attention pools score those rows, and each post's final state is the row
packing.last picks. Attention weights are reported as a dense [b x T]
array over the longest post's T steps, exactly 0 past each post's end, and
ForwardResult.mask is the matching {0,1} array of each post's steps. Every
dense layer of the emotion heads and the discriminators is one affine node
x W + b.
All parameters live in a flat name -> Node map whose name prefix ("f.",
"y.", "g.", "l.") is the parameter partition used by the saddle-point
update. An eval-mode forward reads those parameters as constants over the
same arrays, so its graph keeps no backward closure.

Manifest fields, by writer: build_model writes the architecture (variant,
embed_dim, hidden_dim, num_locations, lambda_rev, finetune_embeddings), the
init seed, vocab_hash and the default tokenizer_mode
(text.TOKENIZER_MODES[0]); `npd train` adds split_seed and train_frac and
sets tokenizer_mode to its --tokenizer. load_checkpoint checks each field of
_MANIFEST_FIELDS by the rule of the config or function whose value it
records, so both reject a bad value in the same words, and ignores other
fields, such as an older file's num_emotions, corpus_size, attention_dim or
head_hidden_dim.

Checkpoint layout (little-endian, documented for external readers):
  magic b"NPDC" | u32 version | u64 manifest_len | manifest JSON (UTF-8,
  sorted keys) | u64 tensor_count | per tensor: u64 name_len, name UTF-8,
  u64 ndim, u64 dims..., raw float64 data. Tensors are sorted by name;
  save/load round-trips bit-exactly.
"""

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .corpus import EMOTIONS, TokenizedPost
from .errors import (COUNT, FLAG, FRACTION, LOCATIONS, NONNEGATIVE, ContractError, DataError,
                     check, check_fields, one_of)
from .seeding import SEED, substream
from .text import TOKENIZER_MODES, SkipGramConfig


class Wiring(NamedTuple):
    """Which optional parts a variant wires around the shared encoder."""

    gender_attention: bool
    location_attention: bool
    gender_discriminator: bool
    location_discriminator: bool
    reversal: bool


# The fields in order: gender attention, location attention, gender
# discriminator, location discriminator, gradient reversal. LSTM_ATTRIBUTES
# predicts attributes as plain extra labels, with no adversary.
_WIRING = {
    "LSTM":             Wiring(False, False, False, False, False),
    "LSTM_ATTRIBUTES":  Wiring(False, False, True,  True,  False),
    "LSTM_ATTENTION":   Wiring(True,  True,  False, False, False),
    "LSTM_ADVERSARIAL": Wiring(False, False, True,  True,  True),
    "NPD_GENDER":       Wiring(True,  False, True,  False, True),
    "NPD_LOCATION":     Wiring(False, True,  False, True,  True),
    "NPD":              Wiring(True,  True,  True,  True,  True),
}

VARIANT_NAMES = list(_WIRING)
VARIANT = one_of(VARIANT_NAMES)


@dataclass
class ModelDims:
    """Architecture knobs. hidden_dim sizes the LSTM state, the attention
    projections and the emotion heads' hidden layers."""

    hidden_dim: int = 128
    lambda_rev: float = 1.0
    finetune_embeddings: bool = False

    RULES = {"hidden_dim": COUNT, "lambda_rev": NONNEGATIVE, "finetune_embeddings": FLAG}
    validate = check_fields


@dataclass
class ForwardResult:
    """Graph outputs of one batched forward pass."""

    emotion_probs: list          # K Nodes of shape [b x 2]; column 1 = present
    gender_prob: Node | None     # [b x 1] probability of the male label
    location_probs: Node | None  # [b x m]
    attention: dict = field(default_factory=dict)  # name -> constant Node [b x T] of weights
    head_input: Node | None = None
    mask: np.ndarray | None = None  # [b x T] 1.0 on each post's steps, 0.0 after


def _param_specs(manifest: dict, vocab_size: int) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter of the manifest's model by name: its shape and how it
    starts ("uniform", "normal", "zeros" or "embedding"), in the order the
    initialiser draws them, which is also the order of NpdModel.params."""
    wiring = _WIRING[manifest["variant"]]
    e, h, m = (int(manifest[key]) for key in ("embed_dim", "hidden_dim", "num_locations"))
    specs = {"f.lstm.wx": ((e, 4 * h), "uniform"), "f.lstm.wh": ((h, 4 * h), "uniform"),
             "f.lstm.b": ((4 * h,), "zeros"), "f.lstm.h0": ((h,), "normal"),
             "f.lstm.c0": ((h,), "normal")}
    for which, wired in (("g", wiring.gender_attention), ("l", wiring.location_attention)):
        if wired:
            specs |= {f"f.att_{which}.w": ((h, h), "uniform"), f"f.att_{which}.b": ((h,), "zeros"),
                      f"f.att_{which}.u": ((h,), "uniform")}
    if manifest["finetune_embeddings"]:
        specs["f.embed"] = ((vocab_size, e), "embedding")
    din = 2 * h if wiring.gender_attention and wiring.location_attention else h
    for j in range(len(EMOTIONS)):
        specs |= {f"y.head{j}.w": ((din, h), "uniform"), f"y.head{j}.b": ((h,), "zeros"),
                  f"y.head{j}.wo": ((h, 2), "uniform"), f"y.head{j}.bo": ((2,), "zeros")}
    if wiring.gender_discriminator:
        specs |= {"g.w": ((h, 1), "uniform"), "g.b": ((1,), "zeros")}
    if wiring.location_discriminator:
        specs |= {"l.w": ((h, m), "uniform"), "l.b": ((m,), "zeros")}
    return specs


class NpdModel:
    """One variant's parameter set plus its forward wiring."""

    def __init__(self, manifest: dict, embedding: np.ndarray,
                 params: dict[str, np.ndarray] | None = None):
        """params, when given, holds every parameter's array by name, as
        load_checkpoint passes a file's tensors once it has checked their
        names and shapes; otherwise the parameters are drawn from the
        manifest's seed."""
        self.manifest = dict(manifest)
        self.variant = manifest["variant"]
        self.wiring = _WIRING[self.variant]
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.lambda_rev = float(manifest["lambda_rev"])
        self.finetune_embeddings = bool(manifest["finetune_embeddings"])
        if params is None:
            self.params = self._init_params()
        else:
            self.params = {name: ad.param(params[name])
                           for name in _param_specs(manifest, len(self.embedding))}

    # -- construction -----------------------------------------------------

    def _init_params(self) -> dict[str, Node]:
        rng = substream(int(self.manifest["seed"]), "init")
        draw = {"uniform": lambda shape: rng.uniform(-0.08, 0.08, size=shape),
                "normal": lambda shape: rng.normal(0.0, 0.01, size=shape),
                "zeros": np.zeros,
                "embedding": lambda shape: self.embedding.copy()}
        specs = _param_specs(self.manifest, len(self.embedding))
        return {name: ad.param(draw[start](shape)) for name, (shape, start) in specs.items()}

    def zero_grads(self) -> None:
        for node in self.params.values():
            node.grad[...] = 0.0

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            raise ContractError("state dict does not match model parameters")
        for k, v in state.items():
            self.params[k].value[...] = v

    # -- forward ----------------------------------------------------------

    def _embed_all_steps(self, p: dict[str, Node], tokens: np.ndarray, first: np.ndarray,
                         packing: ad.Packing) -> tuple[Node, np.ndarray]:
        """The [V x e] embedding node and the token id of each of the batch's
        live (step, post) pairs in packing's order, read from the posts'
        concatenated ids tokens at first[post] + step, where first[i] is
        post i's first position; lstm_seq gathers and projects the rows of
        those ids, once per distinct id."""
        table = p["f.embed"] if self.finetune_embeddings else ad.constant(self.embedding)
        return table, tokens[first[packing.post] + packing.step]

    def _encode(self, p: dict[str, Node], tokens: np.ndarray, first: np.ndarray,
                packing: ad.Packing) -> Node:
        """Run the LSTM over the batch's live pairs as one fused node,
        embedding gather and input projection included. Returns the hidden
        state after every live pair as an [L x h] node in packing's order."""
        return ad.lstm_seq(*self._embed_all_steps(p, tokens, first, packing),
                           *(p[f"f.lstm.{name}"] for name in ("wx", "b", "wh", "h0", "c0")),
                           packing)

    def _attend(self, p: dict[str, Node], states: Node, packing: ad.Packing, which: str):
        att = (p[f"f.att_{which}.{name}"] for name in "wbu")
        weights, pooled = ad.attention_pool(states, *att, packing)
        return ad.constant(weights), pooled

    def _emotion_heads(self, p: dict[str, Node], head_in: Node) -> list[Node]:
        out = []
        for j in range(len(EMOTIONS)):
            hid = ad.sigmoid(ad.affine(head_in, p[f"y.head{j}.w"], p[f"y.head{j}.b"]))
            logits = ad.affine(hid, p[f"y.head{j}.wo"], p[f"y.head{j}.bo"])
            out.append(ad.softmax_rows(logits))
        return out

    def _discriminate(self, p: dict[str, Node], vec: Node, which: str) -> Node:
        x = ad.grad_reverse(vec, self.lambda_rev) if self.wiring.reversal else vec
        logits = ad.affine(x, p[f"{which}.w"], p[f"{which}.b"])
        if which == "g":
            return ad.sigmoid(logits)
        return ad.softmax_rows(logits)

    def forward(self, batch: list[TokenizedPost], train_mode: bool = False,
                rng: np.random.Generator | None = None,
                dropout_rate: float = 0.0) -> ForwardResult:
        """Batched forward pass through the variant's wiring.

        Only a train-mode forward builds a graph that backward can run on.
        In eval mode every parameter enters as a constant over its own
        array, so no node keeps a backward closure: each op's buffers are
        freed as soon as nothing reads its value, the outputs are the same
        bits as a train-mode forward without dropout, and the parameters'
        values and gradients are left untouched.
        """
        lengths = np.array([len(post.ids) for post in batch], dtype=np.int64)
        packing = ad.pack(lengths)  # a ContractError for an empty batch or post
        tokens = np.fromiter(itertools.chain.from_iterable(post.ids for post in batch),
                             dtype=np.int64, count=packing.start[-1])
        if train_mode:
            p = self.params
        else:
            p = {name: ad.constant(node.value) for name, node in self.params.items()}
        states = self._encode(p, tokens, np.cumsum(lengths) - lengths, packing)
        wiring = self.wiring

        attention: dict[str, Node] = {}
        v_g = v_l = None
        if wiring.gender_attention:
            attention["gender"], v_g = self._attend(p, states, packing, "g")
        if wiring.location_attention:
            attention["location"], v_l = self._attend(p, states, packing, "l")

        # each post's final state feeds the parts no attention pool feeds; where
        # nothing reads it, reference counting frees it when forward returns
        h_last = ad.rows(states, packing.last)

        if v_g is not None and v_l is not None:
            head_in = ad.concat(v_g, v_l)
        else:
            head_in = v_g or v_l or h_last

        if train_mode and dropout_rate > 0.0:
            if rng is None:
                raise ContractError("forward: train-mode dropout needs an rng")
            head_in = ad.dropout(head_in, dropout_rate, rng)

        gender_prob = location_probs = None
        if wiring.gender_discriminator:
            gender_prob = self._discriminate(p, v_g or h_last, "g")
        if wiring.location_discriminator:
            location_probs = self._discriminate(p, v_l or h_last, "l")

        mask = (np.arange(len(packing.live)) < lengths[:, None]).astype(np.float64)
        return ForwardResult(emotion_probs=self._emotion_heads(p, head_in),
                             gender_prob=gender_prob, location_probs=location_probs,
                             attention=attention, head_input=head_in, mask=mask)


def build_model(variant: str, embedding: np.ndarray, num_locations: int, seed: int,
                dims: ModelDims | None = None, vocab_hash: str = "") -> NpdModel:
    """Assemble a fresh model with seeded initialization; dims defaults to ModelDims()."""
    check(VARIANT, "variant", variant)
    check(LOCATIONS, "num_locations", num_locations)
    dims = dims or ModelDims()
    dims.validate()
    manifest = {
        "variant": variant,
        "embed_dim": int(embedding.shape[1]),
        "hidden_dim": int(dims.hidden_dim),
        "num_locations": int(num_locations),
        "vocab_hash": vocab_hash,
        "seed": int(seed),
        "lambda_rev": float(dims.lambda_rev),
        "finetune_embeddings": bool(dims.finetune_embeddings),
        "tokenizer_mode": TOKENIZER_MODES[0],
    }
    return NpdModel(manifest, embedding)


_MAGIC = b"NPDC"
_VERSION = 1


def save_checkpoint(path: str, model: NpdModel) -> None:
    tensors = {name: node.value for name, node in sorted(model.params.items())}
    tensors["embedding"] = model.embedding
    blob = json.dumps(model.manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _read(fh, size: int, path: str, section: str) -> bytes:
    """Exactly size bytes of the named section, or a DataError if the file ends
    first. Checked before reading, so a corrupt length never allocates."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise DataError(f"{path}: checkpoint truncated in {section} "
                        f"(wanted {size} bytes, {left} left)")
    return fh.read(size)


# every manifest field that NpdModel and the CLI read, with the rule of the
# config, or of build_model or corpus.split, whose value it records
_MANIFEST_FIELDS = {
    "variant": VARIANT,
    "embed_dim": SkipGramConfig.RULES["embed_dim"],
    "hidden_dim": ModelDims.RULES["hidden_dim"],
    "num_locations": LOCATIONS, "seed": SEED,
    "lambda_rev": ModelDims.RULES["lambda_rev"],
    "finetune_embeddings": ModelDims.RULES["finetune_embeddings"],
    "tokenizer_mode": one_of(TOKENIZER_MODES),
    # fields the CLI reads where present
    "split_seed": SEED, "train_frac": FRACTION,
    "vocab_hash": (("be a string", lambda v: isinstance(v, str)),),
}
_OPTIONAL_FIELDS = ("split_seed", "train_frac", "vocab_hash")


def _check_manifest(manifest, path: str) -> None:
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: checkpoint manifest must be a JSON object")
    for key, rule in _MANIFEST_FIELDS.items():
        if key in manifest:
            check(rule, f"{path}: checkpoint manifest field {key!r}", manifest[key], DataError)
        elif key not in _OPTIONAL_FIELDS:
            raise DataError(f"{path}: checkpoint manifest has no field {key!r}")


def load_checkpoint(path: str) -> NpdModel:
    with open(path, "rb") as fh:
        if _read(fh, 4, path, "magic") != _MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        (version,) = struct.unpack("<I", _read(fh, 4, path, "version"))
        if version != _VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (mlen,) = struct.unpack("<Q", _read(fh, 8, path, "manifest length"))
        try:
            manifest = json.loads(_read(fh, mlen, path, "manifest").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: malformed checkpoint manifest ({exc})") from exc
        _check_manifest(manifest, path)
        (count,) = struct.unpack("<Q", _read(fh, 8, path, "tensor count"))
        tensors = {}
        for k in range(count):
            where = f"tensor {k}"
            (nlen,) = struct.unpack("<Q", _read(fh, 8, path, f"{where} name length"))
            name = _read(fh, nlen, path, f"{where} name").decode("utf-8", errors="replace")
            where = f"tensor {name!r}"
            if name in tensors:
                raise DataError(f"{path}: checkpoint repeats {where}")
            (ndim,) = struct.unpack("<Q", _read(fh, 8, path, f"{where} rank"))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, path, f"{where} dims"))
            # in Python ints, so untrusted dims cannot wrap; a 0 dim would leave
            # the others unchecked, and no tensor of a model is empty
            size = math.prod(shape)
            if size == 0:
                raise DataError(f"{path}: {where} has no values, shape {shape}")
            data = np.frombuffer(_read(fh, 8 * size, path, f"{where} data"), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise DataError(f"{path}: tensor {name!r} holds non-finite values")
            tensors[name] = data.reshape(shape).astype(np.float64)
    embedding = tensors.pop("embedding", np.empty(0))
    if embedding.shape[1:] != (manifest["embed_dim"],):
        raise DataError(f"{path}: checkpoint tensor 'embedding' is missing or not a "
                        f"[vocab x embed_dim {manifest['embed_dim']}] matrix")
    specs = _param_specs(manifest, len(embedding))
    if set(tensors) != set(specs):
        raise DataError(f"{path}: checkpoint tensors do not match variant "
                        f"{manifest['variant']}")
    for name, (shape, _) in specs.items():  # in the model's order: encoder first
        if tensors[name].shape != shape:
            raise DataError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                            f"expected {shape}")
    return NpdModel(manifest, embedding, tensors)
