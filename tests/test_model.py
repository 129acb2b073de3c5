"""Model wiring tests: encoder, attention, heads, discriminators, variants,
and checkpoint IO. Forward values and gradients are verified against the
straight-line numpy oracle."""

import ast
import dataclasses
import importlib
import struct
from pathlib import Path

import numpy as np
import pytest

import oracle
from test_autodiff import probe_loss
from npd import autodiff as ad
from npd import corpus
from npd.corpus import Post, SynthConfig, TokenizedPost
from npd.errors import ContractError, DataError, NpdError
from npd.evaluation import evaluate
from npd.model import (VARIANT_NAMES, ModelDims, NpdModel, _check_manifest, build_model,
                       load_checkpoint, save_checkpoint)
from npd.text import SkipGramConfig
from npd.training import TrainingConfig, batch_losses, emotion_loss, gender_loss

VOCAB = 24


def make_post(rng, n, m=5):
    return TokenizedPost(
        ids=list(rng.integers(2, VOCAB, size=n)),
        emotion_bits=rng.integers(0, 2, size=5),
        gender_bit=int(rng.integers(2)),
        location=int(rng.integers(m)),
    )


def small_model(variant, seed=0, embed_dim=8, hidden_dim=6, m=5, **kw):
    rng = np.random.default_rng(1000 + seed)
    table = rng.standard_normal((VOCAB, embed_dim)) * 0.3
    return build_model(variant, table, num_locations=m, seed=seed,
                       dims=ModelDims(hidden_dim=hidden_dim, **kw))


def param_values(model):
    return {k: v.value for k, v in model.params.items()}


class TestEncoder:
    def test_single_token_shapes(self):
        model = small_model("LSTM")
        rng = np.random.default_rng(0)
        fwd = model.forward([make_post(rng, 1)])
        assert fwd.head_input.value.shape == (1, model.manifest["hidden_dim"])

    def test_zero_params_zero_states(self):
        model = small_model("LSTM")
        for node in model.params.values():
            node.value[...] = 0.0
        rng = np.random.default_rng(0)
        fwd = model.forward([make_post(rng, 6)])
        np.testing.assert_array_equal(fwd.head_input.value, 0.0)

    def test_gate_gradients_match_fd(self):
        model = small_model("LSTM", seed=3)
        rng = np.random.default_rng(3)
        batch = [make_post(rng, 3), make_post(rng, 5)]
        probe = rng.standard_normal((2, model.manifest["hidden_dim"]))
        fwd = model.forward(batch, train_mode=True)
        ad.backward(probe_loss(fwd.head_input, probe))

        params = param_values(model)

        def scalar(work):
            total = 0.0
            for i, post in enumerate(batch):
                xs = [model.embedding[t] for t in post.ids]
                h = oracle.lstm_states(work, xs, model.manifest["hidden_dim"])[-1]
                total += float(h @ probe[i])
            return total

        for name in ("f.lstm.wx", "f.lstm.wh", "f.lstm.b", "f.lstm.h0", "f.lstm.c0"):
            base = params[name]
            numeric = np.zeros_like(base)
            work = dict(params)
            work[name] = base.copy()
            for i in range(base.size):
                orig = base.flat[i]
                work[name].flat[i] = orig + 1e-5
                up = scalar(work)
                work[name].flat[i] = orig - 1e-5
                down = scalar(work)
                work[name].flat[i] = orig
                numeric.flat[i] = (up - down) / 2e-5
            assert oracle.max_rel_error(model.params[name].grad, numeric) < 1e-4, name


class TestAttention:
    def test_length_one_weight_is_exactly_one(self):
        model = small_model("NPD_GENDER")
        rng = np.random.default_rng(5)
        fwd = model.forward([make_post(rng, 1)])
        np.testing.assert_array_equal(fwd.attention["gender"].value, [[1.0]])

    def test_zero_projection_uniform_weights_mean_pool(self):
        model = small_model("NPD_GENDER")
        model.params["f.att_g.w"].value[...] = 0.0
        model.params["f.att_g.b"].value[...] = 0.0
        n = 7
        post = make_post(np.random.default_rng(6), n)
        fwd = model.forward([post])
        np.testing.assert_allclose(fwd.attention["gender"].value, 1.0 / n, atol=1e-15)
        states = oracle.lstm_states(param_values(model),
                                    [model.embedding[t] for t in post.ids],
                                    model.manifest["hidden_dim"])
        np.testing.assert_allclose(fwd.head_input.value[0],
                                   np.mean(states, axis=0), atol=1e-12)

    def test_dominant_score_takes_nearly_all_weight(self):
        model = small_model("NPD_GENDER", hidden_dim=4)
        p = model.params
        p["f.att_g.w"].value[...] = np.eye(4) * 50.0
        p["f.att_g.b"].value[...] = 0.0
        p["f.att_g.u"].value[...] = np.array([10.0, 0.0, 0.0, 0.0])
        big = 1.0
        states = ad.constant(np.array([[big, 0.0, 0.0, 0.0],
                                       [-big, 0.0, 0.0, 0.0],
                                       [-big, 0.0, 0.0, 0.0]]))  # T=3 steps of one post
        weights, _ = model._attend(p, states, ad.pack([3]), "g")
        assert weights.value[0, 0] > 0.999


class TestEmotionHeads:
    def test_zero_output_layer_gives_half_half(self):
        model = small_model("LSTM")
        for j in range(5):
            model.params[f"y.head{j}.wo"].value[...] = 0.0
            model.params[f"y.head{j}.bo"].value[...] = 0.0
        rng = np.random.default_rng(7)
        fwd = model.forward([make_post(rng, 4)])
        for probs in fwd.emotion_probs:
            np.testing.assert_allclose(probs.value, 0.5, atol=1e-15)

    def test_head_independence(self):
        model = small_model("LSTM", seed=9)
        rng = np.random.default_rng(9)
        batch = [make_post(rng, 5)]
        before = [p.value.copy() for p in model.forward(batch).emotion_probs]
        model.params["y.head2.w"].value += 0.5
        after = [p.value for p in model.forward(batch).emotion_probs]
        for j in range(5):
            if j == 2:
                assert not np.allclose(before[j], after[j])
            else:
                np.testing.assert_array_equal(before[j], after[j])


class TestDiscriminators:
    def test_zero_weights_chance_outputs(self):
        model = small_model("NPD", m=4)
        model.params["g.w"].value[...] = 0.0
        model.params["g.b"].value[...] = 0.0
        model.params["l.w"].value[...] = 0.0
        model.params["l.b"].value[...] = 0.0
        rng = np.random.default_rng(11)
        fwd = model.forward([make_post(rng, 3, m=4)])
        np.testing.assert_allclose(fwd.gender_prob.value, 0.5, atol=1e-15)
        np.testing.assert_allclose(fwd.location_probs.value, 0.25, atol=1e-15)

    def _encoder_grads_from_gender_loss(self, lambda_rev, reversal=True):
        model = small_model("NPD_GENDER", seed=12, lambda_rev=lambda_rev)
        model.wiring = model.wiring._replace(reversal=reversal)
        rng = np.random.default_rng(12)
        batch = [make_post(rng, 4), make_post(rng, 2)]
        fwd = model.forward(batch, train_mode=True)
        loss = gender_loss(fwd.gender_prob, np.array([p.gender_bit for p in batch]))
        ad.backward(loss)
        return {k: v.grad.copy() for k, v in model.params.items() if k.startswith("f.")}

    def test_lambda_rev_zero_blocks_encoder_gradient(self):
        for name, g in self._encoder_grads_from_gender_loss(0.0).items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    def test_reversal_negates_encoder_gradient(self):
        with_rev = self._encoder_grads_from_gender_loss(1.0, reversal=True)
        without = self._encoder_grads_from_gender_loss(1.0, reversal=False)
        for name in with_rev:
            np.testing.assert_allclose(with_rev[name], -without[name],
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_emotion_path_unaffected_by_reversal(self):
        cfg = TrainingConfig(l2_lambda=0.0, dropout_rate=0.0)

        def emotion_grads(reversal):
            model = small_model("NPD", seed=13)
            model.wiring = model.wiring._replace(reversal=reversal)
            rng = np.random.default_rng(13)
            batch = [make_post(rng, 5)]
            fwd = model.forward(batch, train_mode=True)
            gold = np.stack([p.emotion_bits for p in batch])
            heads = [n for k, n in model.params.items() if k.startswith("y.")]
            ad.backward(emotion_loss(fwd.emotion_probs, gold, heads, 0.0))
            return {k: v.grad.copy() for k, v in model.params.items()}

        a, b = emotion_grads(True), emotion_grads(False)
        for name in a:
            np.testing.assert_allclose(a[name], b[name], rtol=0, atol=1e-12, err_msg=name)


class TestForwardVariants:
    def test_npd_length_one_concatenates_last_state(self):
        model = small_model("NPD")
        rng = np.random.default_rng(14)
        post = make_post(rng, 1)
        fwd = model.forward([post])
        states = oracle.lstm_states(param_values(model),
                                    [model.embedding[t] for t in post.ids],
                                    model.manifest["hidden_dim"])
        np.testing.assert_allclose(fwd.head_input.value[0],
                                   np.concatenate([states[-1], states[-1]]), atol=1e-12)

    def test_lstm_variant_has_no_attribute_parameters(self):
        model = small_model("LSTM")
        assert not any(k.startswith(("g.", "l.")) for k in model.params)

    def test_partition_covers_every_parameter_once(self):
        """AdaGrad and batch_losses' "y." filter sort parameters by this prefix."""
        for variant in VARIANT_NAMES:
            model = small_model(variant)
            assert {name.split(".", 1)[0] for name in model.params} <= {"f", "y", "g", "l"}

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_forward_matches_oracle(self, variant):
        model = small_model(variant, seed=21)
        rng = np.random.default_rng(21)
        batch = [make_post(rng, n) for n in (1, 4, 9)]
        fwd = model.forward(batch)
        params = param_values(model)
        for i, post in enumerate(batch):
            ref = oracle.forward_post(params, model.embedding, post.ids, model.manifest)
            for j in range(5):
                np.testing.assert_allclose(fwd.emotion_probs[j].value[i],
                                           ref["emotion_probs"][j], atol=1e-10)
            if ref["gender_prob"] is not None:
                np.testing.assert_allclose(fwd.gender_prob.value[i, 0],
                                           ref["gender_prob"], atol=1e-10)
            if ref["location_probs"] is not None:
                np.testing.assert_allclose(fwd.location_probs.value[i],
                                           ref["location_probs"], atol=1e-10)
            np.testing.assert_allclose(fwd.head_input.value[i], ref["head_input"],
                                       atol=1e-10)
            for key, weights in fwd.attention.items():
                n = len(post.ids)
                np.testing.assert_allclose(weights.value[i, :n], ref["attention"][key],
                                           atol=1e-10)
                np.testing.assert_array_equal(weights.value[i, n:], 0.0)

    def test_eval_mode_ignores_dropout_rate(self):
        """Dropout enters the graph only in train mode, so an eval-mode
        forward given a dropout rate (and no rng) is the plain forward."""
        model = small_model("NPD")
        batch = [make_post(np.random.default_rng(22), n) for n in (3, 6)]
        plain = model.forward(batch).head_input.value
        np.testing.assert_array_equal(model.forward(batch, dropout_rate=0.9).head_input.value,
                                      plain)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            small_model("LSTM").forward([])


class TestSimplexInvariants:
    def test_attention_weights_on_simplex(self):
        model = small_model("NPD", seed=31)
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 201))
            fwd = model.forward([make_post(rng, n)])
            for weights in fwd.attention.values():
                w = weights.value[0, :n]
                assert np.all(w >= 0.0)
                assert abs(w.sum() - 1.0) < 1e-9

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            s = rng.standard_normal((1, rng.integers(1, 12)))
            a = ad.softmax_rows(ad.constant(s)).value
            b = ad.softmax_rows(ad.constant(s + 17.3)).value
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestFullGradient:
    def test_npd_total_loss_gradcheck(self):
        model = small_model("NPD", seed=41, embed_dim=4, hidden_dim=5, m=3)
        rng = np.random.default_rng(41)
        batch = [make_post(rng, n, m=3) for n in (1, 3, 7)]
        cfg = TrainingConfig(l2_lambda=0.01, dropout_rate=0.0)
        fwd = model.forward(batch, train_mode=True)
        _, _, _, total = batch_losses(model, fwd, batch, cfg)
        ad.backward(total)

        params = param_values(model)
        fd_batch = [(p.ids, p.emotion_bits, p.gender_bit, p.location) for p in batch]
        for name in model.params:
            numeric = oracle.fd_gradient(name, params, model.embedding, fd_batch,
                                         model.manifest, (1.0, 1.0, 1.0), 0.01)
            err = oracle.max_rel_error(model.params[name].grad, numeric)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"


def eval_outputs(fwd):
    """Every array an eval-mode forward reports, by name."""
    out = {f"emotion{j}": p.value for j, p in enumerate(fwd.emotion_probs)}
    out.update({f"attention.{k}": w.value for k, w in fwd.attention.items()})
    out["head_input"] = fwd.head_input.value
    for name in ("gender_prob", "location_probs"):
        if getattr(fwd, name) is not None:
            out[name] = getattr(fwd, name).value
    return out


def closures(fwd):
    """How many nodes of a forward's graph keep a backward closure."""
    roots = [*fwd.emotion_probs, fwd.gender_prob, fwd.location_probs, fwd.head_input]
    nodes = {id(n): n for r in roots if r is not None for n in ad.graph_order(r)}
    return sum(n._backward is not None for n in nodes.values())


@pytest.mark.parametrize("finetune", [False, True], ids=["frozen-embed", "finetune-embed"])
@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_frozen_view(variant, finetune):
    """An eval-mode forward reads the parameters as a frozen view, constants
    over the model's own arrays: its graph keeps no closure, its outputs are
    the bits of a train-mode forward without dropout, and it leaves every
    param's value and grad bit-unchanged, as does evaluate, which runs it."""
    model = small_model(variant, seed=31, finetune_embeddings=finetune)
    rng = np.random.default_rng(31)
    batch = [make_post(rng, k) for k in (5, 1, 7, 5, 3)]
    for node in model.params.values():
        node.grad[...] = rng.standard_normal(node.grad.shape)
    before = {k: (n.value.copy(), n.grad.copy()) for k, n in model.params.items()}

    def assert_untouched():
        for k, (value, grad) in before.items():
            np.testing.assert_array_equal(model.params[k].value, value, err_msg=k)
            np.testing.assert_array_equal(model.params[k].grad, grad, err_msg=k)

    eval_fwd = model.forward(batch)
    assert closures(eval_fwd) == 0
    assert_untouched()
    train_fwd = model.forward(batch, train_mode=True)
    assert closures(train_fwd) > 0
    want, got = eval_outputs(train_fwd), eval_outputs(eval_fwd)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name

    evaluate(model, batch, batch_size=2)
    assert_untouched()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model("NPD", seed=51)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, model)
        reloaded = load_checkpoint(p1)
        save_checkpoint(p2, reloaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert reloaded.manifest == model.manifest
        for name in model.params:
            np.testing.assert_array_equal(reloaded.params[name].value,
                                          model.params[name].value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_oversized_length_field_rejected(self, tmp_path):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(b"NPDC" + struct.pack("<IQ", 1, 2**62) + b"{}")
        with pytest.raises(DataError, match="manifest"):
            load_checkpoint(path)

    def test_forward_identical_after_reload(self, tmp_path):
        model = small_model("NPD", seed=52)
        rng = np.random.default_rng(52)
        batch = [make_post(rng, 6)]
        path = tmp_path / "m.bin"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path)
        a = model.forward(batch)
        b = reloaded.forward(batch)
        for j in range(5):
            np.testing.assert_array_equal(a.emotion_probs[j].value,
                                          b.emotion_probs[j].value)

    def test_repeated_tensor_rejected(self, tmp_path):
        """A tensor that appears twice is an error naming it, not a silent
        overwrite by the last copy."""
        path = tmp_path / "m.bin"
        save_checkpoint(path, small_model("NPD", seed=53))
        blob = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", blob, 8)
        count_at = 16 + mlen  # the layout in npd.model's docstring
        (count,) = struct.unpack_from("<Q", blob, count_at)
        name, value = b"f.lstm.b", np.full(24, 7.0)
        extra = (struct.pack("<Q", len(name)) + name + struct.pack("<QQ", 1, value.size)
                 + value.astype("<f8").tobytes())
        path.write_bytes(blob[:count_at] + struct.pack("<Q", count + 1)
                         + blob[count_at + 8 :] + extra)
        with pytest.raises(DataError, match="repeats tensor 'f.lstm.b'") as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("finetune", [False, True], ids=["frozen-embed", "finetune-embed"])
    def test_load_draws_no_initial_params(self, tmp_path, monkeypatch, finetune):
        """Loading builds the params from the file's tensors, in the model's
        own order, and never draws a seeded initialisation."""
        model = small_model("NPD", seed=54, finetune_embeddings=finetune)
        path = tmp_path / "m.bin"
        save_checkpoint(path, model)

        def fail(self):
            raise AssertionError("load_checkpoint called _init_params")

        monkeypatch.setattr(NpdModel, "_init_params", fail)
        reloaded = load_checkpoint(path)
        assert list(reloaded.params) == list(model.params)
        for name, node in model.params.items():
            np.testing.assert_array_equal(reloaded.params[name].value, node.value)
            assert reloaded.params[name].grad.shape == node.value.shape


def test_traced_layer_names_exist():
    """perfbench/tracing.py wraps npd's layers by name, as
    self.patch(<module or module.Class>, "<name>", ...); a renamed layer
    would only read 0 in a traced run, so each name must still exist where
    the tracer looks for it (a class's own attribute, or a module's)."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    patched = [(ast.unparse(call.args[0]), call.args[1].value)
               for call in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "patch"]
    assert ("model.NpdModel", "_embed_all_steps") in patched
    missing = []
    for owner_name, attr in patched:
        module, *cls = owner_name.split(".")
        owner = importlib.import_module(f"npd.{module}")
        if cls:
            owner = vars(owner)[cls[0]]
        if attr not in vars(owner):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []


SPLIT_POSTS = [Post(text=f"t{i}", emotions=set(), gender="male", location=0) for i in range(10)]
TABLE = np.zeros((VOCAB, 8))

# (manifest field, a value its rule rejects, the library check of the value it
# records): the config that owns the field, or build_model and corpus.split
SHARED_RULES = [
    ("variant", "BERT", lambda v: build_model(v, TABLE, 5, 0)),
    ("embed_dim", 0, lambda v: SkipGramConfig(embed_dim=v).validate()),
    ("hidden_dim", 0, lambda v: ModelDims(hidden_dim=v).validate()),
    ("num_locations", 1, lambda v: build_model("LSTM", TABLE, v, 0)),
    ("seed", 2**32, lambda v: TrainingConfig(seed=v).validate()),
    ("lambda_rev", -1.0, lambda v: ModelDims(lambda_rev=v).validate()),
    ("finetune_embeddings", 1, lambda v: ModelDims(finetune_embeddings=v).validate()),
    ("split_seed", -1, lambda v: corpus.split(SPLIT_POSTS, seed=v)),
    ("train_frac", 1.0, lambda v: corpus.split(SPLIT_POSTS, train_frac=v)),
]


@pytest.mark.parametrize("field,bad,library_check", SHARED_RULES,
                         ids=[row[0] for row in SHARED_RULES])
def test_manifest_and_library_reject_a_value_in_the_same_words(field, bad, library_check):
    """A field that both a config (or build_model, or corpus.split) and the
    checkpoint manifest check is rejected by both with one wording."""
    manifest = {**small_model("NPD").manifest, "split_seed": 0, "train_frac": 0.7}
    _check_manifest(manifest, "m.bin")  # the good manifest passes
    with pytest.raises(NpdError) as by_library:
        library_check(bad)
    with pytest.raises(DataError) as by_manifest:
        _check_manifest({**manifest, field: bad}, "m.bin")
    library, stored = str(by_library.value), str(by_manifest.value)
    assert stored.startswith(f"m.bin: checkpoint manifest field {field!r} must ")
    assert stored[stored.index(" must "):] == library[library.index(" must "):]
    assert library.endswith(f", got {bad!r}")


@pytest.mark.parametrize("cls", [SynthConfig, SkipGramConfig, TrainingConfig, ModelDims])
def test_every_config_field_has_a_rule(cls):
    assert list(cls.RULES) == [f.name for f in dataclasses.fields(cls)]
