"""The emotion model: shared LSTM encoder, per-attribute attention pooling,
gradient-reversed gender/location discriminators, and five 2-class emotion
heads, with every ablation variant wired from the same parts.

Forward passes are batched. Posts are padded to the batch's longest
sequence, and the {0,1} validity mask is turned once per batch into a
packing (autodiff.pack) that lists the batch's L live (step, post) pairs.
The whole encoder then runs on those pairs only: the embedding gather and
the input matmul are [L x ...], the fused lstm_seq node runs each step on
the posts still running and returns the [L x h] state after every pair,
the attention pools score those rows, and each post's final state is the
row packing.last picks. Padded steps are never computed. Attention weights
are reported as a dense [b x T] array, exactly 0 on padding.
All parameters live in a flat name -> Node map whose name prefix ("f.",
"y.", "g.", "l.") is the parameter partition used by the saddle-point
update.

Checkpoint layout (little-endian, documented for external readers):
  magic b"NPDC" | u32 version | u64 manifest_len | manifest JSON (UTF-8,
  sorted keys) | u64 tensor_count | per tensor: u64 name_len, name UTF-8,
  u64 ndim, u64 dims..., raw float64 data. Tensors are sorted by name;
  save/load round-trips bit-exactly.
"""

import json
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .corpus import EMOTIONS, TokenizedPost
from .errors import ConfigError, ContractError, DataError
from .seeding import substream


class ModelVariant(str, Enum):
    LSTM = "LSTM"
    LSTM_ATTRIBUTES = "LSTM_ATTRIBUTES"
    LSTM_ATTENTION = "LSTM_ATTENTION"
    LSTM_ADVERSARIAL = "LSTM_ADVERSARIAL"
    NPD_GENDER = "NPD_GENDER"
    NPD_LOCATION = "NPD_LOCATION"
    NPD = "NPD"


VARIANT_NAMES = [v.value for v in ModelVariant]


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
    ModelVariant.LSTM:             Wiring(False, False, False, False, False),
    ModelVariant.LSTM_ATTRIBUTES:  Wiring(False, False, True,  True,  False),
    ModelVariant.LSTM_ATTENTION:   Wiring(True,  True,  False, False, False),
    ModelVariant.LSTM_ADVERSARIAL: Wiring(False, False, True,  True,  True),
    ModelVariant.NPD_GENDER:       Wiring(True,  False, True,  False, True),
    ModelVariant.NPD_LOCATION:     Wiring(False, True,  False, True,  True),
    ModelVariant.NPD:              Wiring(True,  True,  True,  True,  True),
}


@dataclass
class ForwardResult:
    """Graph outputs of one batched forward pass."""

    emotion_probs: list          # K Nodes of shape [b x 2]; column 1 = present
    gender_prob: Node | None     # [b x 1] probability of the male label
    location_probs: Node | None  # [b x m]
    attention: dict = field(default_factory=dict)  # name -> constant Node [b x T] of weights
    head_input: Node | None = None
    mask: np.ndarray | None = None


class NpdModel:
    """One variant's parameter set plus its forward wiring."""

    def __init__(self, manifest: dict, embedding: np.ndarray):
        self.manifest = dict(manifest)
        self.variant = ModelVariant(manifest["variant"])
        self.wiring = _WIRING[self.variant]
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.embed_dim = int(manifest["embed_dim"])
        self.hidden_dim = int(manifest["hidden_dim"])
        self.attention_dim = int(manifest["attention_dim"])
        self.head_hidden_dim = int(manifest["head_hidden_dim"])
        self.num_locations = int(manifest["num_locations"])
        self.lambda_rev = float(manifest["lambda_rev"])
        self.finetune_embeddings = bool(manifest["finetune_embeddings"])
        if self.num_locations < 2:
            raise ConfigError(f"need at least 2 location classes, got {self.num_locations}")
        self.params = self._init_params()

    # -- construction -----------------------------------------------------

    @property
    def head_input_dim(self) -> int:
        both = self.wiring.gender_attention and self.wiring.location_attention
        return 2 * self.hidden_dim if both else self.hidden_dim

    def _init_params(self) -> dict[str, Node]:
        rng = substream(int(self.manifest["seed"]), "init")
        e, h, a, hh = self.embed_dim, self.hidden_dim, self.attention_dim, self.head_hidden_dim
        m = self.num_locations

        def w(shape):
            return ad.param(rng.uniform(-0.08, 0.08, size=shape))

        def zeros(shape):
            return ad.param(np.zeros(shape))

        p: dict[str, Node] = {}
        p["f.lstm.wx"] = w((e, 4 * h))
        p["f.lstm.wh"] = w((h, 4 * h))
        p["f.lstm.b"] = zeros(4 * h)
        p["f.lstm.h0"] = ad.param(rng.normal(0.0, 0.01, size=h))
        p["f.lstm.c0"] = ad.param(rng.normal(0.0, 0.01, size=h))
        if self.wiring.gender_attention:
            p["f.att_g.w"], p["f.att_g.b"], p["f.att_g.u"] = w((h, a)), zeros(a), w(a)
        if self.wiring.location_attention:
            p["f.att_l.w"], p["f.att_l.b"], p["f.att_l.u"] = w((h, a)), zeros(a), w(a)
        if self.finetune_embeddings:
            p["f.embed"] = ad.param(self.embedding.copy())
        din = self.head_input_dim
        for j in range(len(EMOTIONS)):
            p[f"y.head{j}.w"] = w((din, hh))
            p[f"y.head{j}.b"] = zeros(hh)
            p[f"y.head{j}.wo"] = w((hh, 2))
            p[f"y.head{j}.bo"] = zeros(2)
        if self.wiring.gender_discriminator:
            p["g.w"], p["g.b"] = w((h, 1)), zeros(1)
        if self.wiring.location_discriminator:
            p["l.w"], p["l.b"] = w((h, m)), zeros(m)
        return p

    def partition(self) -> dict[str, list[str]]:
        """Disjoint parameter partition by role: encoder f, emotion heads y,
        gender head g, location head l."""
        parts = {"f": [], "y": [], "g": [], "l": []}
        for name in self.params:
            parts[name.split(".", 1)[0]].append(name)
        return parts

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

    def _embed_all_steps(self, ids: np.ndarray, packing: ad.Packing) -> Node:
        """The inputs of the batch's live (step, post) pairs as one [L x e]
        matrix in packing's order, so the input half of the gate projection
        is a single matmul over live pairs only."""
        flat = ids[packing.post, packing.step]
        if self.finetune_embeddings:
            return ad.rows(self.params["f.embed"], flat)
        return ad.constant(self.embedding[flat])

    def _encode(self, ids: np.ndarray, packing: ad.Packing) -> Node:
        """Run the LSTM over the padded ids' live pairs: one input matmul,
        then one fused recurrence node. Returns the hidden state after every
        live pair as an [L x h] node in packing's order."""
        p = self.params
        pre_x = ad.matmul(self._embed_all_steps(ids, packing), p["f.lstm.wx"])  # [L x 4h]
        return ad.lstm_seq(pre_x, p["f.lstm.wh"], p["f.lstm.b"], p["f.lstm.h0"],
                           p["f.lstm.c0"], packing)

    def _attend(self, states: Node, packing: ad.Packing, which: str):
        att = (self.params[f"f.att_{which}.{name}"] for name in "wbu")
        weights, pooled = ad.attention_pool(states, *att, packing)
        return ad.constant(weights), pooled

    def _emotion_heads(self, head_in: Node) -> list[Node]:
        p = self.params
        out = []
        for j in range(len(EMOTIONS)):
            hid = ad.sigmoid(ad.add_rowvec(ad.matmul(head_in, p[f"y.head{j}.w"]),
                                           p[f"y.head{j}.b"]))
            logits = ad.add_rowvec(ad.matmul(hid, p[f"y.head{j}.wo"]), p[f"y.head{j}.bo"])
            out.append(ad.softmax_rows(logits))
        return out

    def _discriminate(self, vec: Node, which: str) -> Node:
        p = self.params
        x = ad.grad_reverse(vec, self.lambda_rev) if self.wiring.reversal else vec
        logits = ad.add_rowvec(ad.matmul(x, p[f"{which}.w"]), p[f"{which}.b"])
        if which == "g":
            return ad.sigmoid(logits)
        return ad.softmax_rows(logits)

    def forward(self, batch: list[TokenizedPost], train_mode: bool = False,
                rng: np.random.Generator | None = None,
                dropout_rate: float = 0.0) -> ForwardResult:
        """Batched forward pass through the variant's wiring."""
        if not batch:
            raise ContractError("forward: empty batch")
        if any(len(p.ids) == 0 for p in batch):
            raise ContractError("forward: posts must be nonempty")
        b = len(batch)
        T = max(len(p.ids) for p in batch)
        ids = np.zeros((b, T), dtype=np.int64)  # 0 is the PAD row
        mask = np.zeros((b, T))
        for i, post in enumerate(batch):
            n = len(post.ids)
            ids[i, :n] = post.ids
            mask[i, :n] = 1.0

        packing = ad.pack(mask)
        states = self._encode(ids, packing)
        wiring = self.wiring

        attention: dict[str, Node] = {}
        v_g = v_l = None
        if wiring.gender_attention:
            attention["gender"], v_g = self._attend(states, packing, "g")
        if wiring.location_attention:
            attention["location"], v_l = self._attend(states, packing, "l")

        # each post's final state feeds the parts no attention pool feeds. It is
        # built only where read: backward never runs an unread node's closure,
        # so that node and the states it holds would wait for the cyclic GC
        h_last = None
        if (v_g is None and v_l is None or wiring.gender_discriminator and v_g is None
                or wiring.location_discriminator and v_l is None):
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
            gender_prob = self._discriminate(v_g or h_last, "g")
        if wiring.location_discriminator:
            location_probs = self._discriminate(v_l or h_last, "l")

        return ForwardResult(emotion_probs=self._emotion_heads(head_in),
                             gender_prob=gender_prob, location_probs=location_probs,
                             attention=attention, head_input=head_in, mask=mask)


def build_model(variant, embedding: np.ndarray, num_locations: int, seed: int,
                hidden_dim: int = 128, attention_dim: int | None = None,
                head_hidden_dim: int | None = None, lambda_rev: float = 1.0,
                finetune_embeddings: bool = False, vocab_hash: str = "",
                tokenizer_mode: str = "whitespace", extra_manifest: dict | None = None) -> NpdModel:
    """Assemble a fresh model with seeded initialization."""
    manifest = {
        "variant": ModelVariant(variant).value,
        "embed_dim": int(embedding.shape[1]),
        "hidden_dim": int(hidden_dim),
        "attention_dim": int(attention_dim if attention_dim is not None else hidden_dim),
        "head_hidden_dim": int(head_hidden_dim if head_hidden_dim is not None else hidden_dim),
        "num_emotions": len(EMOTIONS),
        "num_locations": int(num_locations),
        "vocab_hash": vocab_hash,
        "seed": int(seed),
        "lambda_rev": float(lambda_rev),
        "finetune_embeddings": bool(finetune_embeddings),
        "tokenizer_mode": tokenizer_mode,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
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


# every manifest field that NpdModel and the CLI read: (what it must be, its test)
_MANIFEST_FIELDS = {
    "variant": ("one of " + ", ".join(VARIANT_NAMES), lambda v: v in VARIANT_NAMES),
    **{key: ("a positive integer", lambda v: type(v) is int and v > 0)
       for key in ("embed_dim", "hidden_dim", "attention_dim", "head_hidden_dim")},
    "num_locations": ("an integer >= 2", lambda v: type(v) is int and v > 1),
    "seed": ("an integer", lambda v: type(v) is int),
    "lambda_rev": ("a number", lambda v: type(v) in (int, float)),
    "finetune_embeddings": ("true or false", lambda v: type(v) is bool),
    "tokenizer_mode": ("a string", lambda v: type(v) is str),
}


def _check_manifest(manifest, path: str) -> None:
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: checkpoint manifest must be a JSON object")
    for key, (want, ok) in _MANIFEST_FIELDS.items():
        if not ok(manifest.get(key)):
            got = repr(manifest[key]) if key in manifest else "no such field"
            raise DataError(f"{path}: checkpoint manifest field {key!r} must be {want}, got {got}")


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
            (ndim,) = struct.unpack("<Q", _read(fh, 8, path, f"{where} rank"))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, path, f"{where} dims"))
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read(fh, 8 * size, path, f"{where} data"), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise DataError(f"{path}: tensor {name!r} holds non-finite values")
            tensors[name] = data.reshape(shape).astype(np.float64)
    embedding = tensors.pop("embedding", np.empty(0))
    if embedding.shape[1:] != (manifest["embed_dim"],):
        raise DataError(f"{path}: checkpoint tensor 'embedding' is missing or not a "
                        f"[vocab x embed_dim {manifest['embed_dim']}] matrix")
    model = NpdModel(manifest, embedding)
    if set(tensors) != set(model.params):
        raise DataError(f"{path}: checkpoint tensors do not match variant "
                        f"{manifest['variant']}")
    for name, arr in tensors.items():
        if model.params[name].value.shape != arr.shape:
            raise DataError(f"{path}: tensor {name} has shape {arr.shape}, "
                            f"expected {model.params[name].value.shape}")
        model.params[name].value[...] = arr
    return model
