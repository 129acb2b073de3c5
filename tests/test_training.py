"""Loss, optimizer, and training-loop tests.

Loss values are checked against independent straight-line summations; the
saddle-point sign pattern is verified by comparing gradients across
separately built graphs.
"""

import gc
import math

import numpy as np
import pytest

from npd import autodiff as ad
from npd import corpus, text, training
from npd.corpus import TokenizedPost
from npd.errors import ConfigError, ContractError, DivergenceError
from npd.evaluation import evaluate
from npd.model import VARIANT_NAMES, ModelDims, build_model
from npd.training import (
    AdaGrad,
    TrainingConfig,
    batch_losses,
    clip_global_norm,
    emotion_loss,
    gender_loss,
    location_loss,
    total_loss,
    train,
)

from test_model import make_post, param_values, small_model


def probs_nodes(values):
    return [ad.constant(np.asarray(v)) for v in values]


class TestEmotionLoss:
    def test_perfect_prediction_zero_loss(self):
        probs = probs_nodes([[[0.0, 1.0]]] * 5)
        gold = np.ones((1, 5), dtype=np.int64)
        loss = emotion_loss(probs, gold, [], 0.0)
        assert loss.value == 0.0

    def test_uniform_heads_five_ln_two(self):
        probs = probs_nodes([[[0.5, 0.5]]] * 5)
        gold = np.zeros((1, 5), dtype=np.int64)
        loss = emotion_loss(probs, gold, [], 0.0)
        np.testing.assert_allclose(loss.value, 5.0 * math.log(2.0), atol=1e-12)

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(1)
        b = 6
        raw = rng.random((5, b, 2)) + 0.05
        raw /= raw.sum(axis=2, keepdims=True)
        gold = rng.integers(0, 2, size=(b, 5))
        w = rng.standard_normal((3, 4))
        loss = emotion_loss(probs_nodes(list(raw)), gold, [ad.param(w)], 0.01)

        expected = 0.0
        for i in range(b):
            for j in range(5):
                expected -= math.log(raw[j][i][gold[i, j]])
        expected = expected / b + 0.005 * float((w * w).sum())
        np.testing.assert_allclose(loss.value, expected, atol=1e-12)


class TestGenderLoss:
    def test_half_gives_ln_two(self):
        for g in (0, 1):
            loss = gender_loss(ad.constant([[0.5]]), np.array([g]))
            np.testing.assert_allclose(loss.value, math.log(2.0), atol=1e-12)

    def test_exact_prediction_clamped(self):
        loss = gender_loss(ad.constant([[1.0]]), np.array([1]))
        assert 0.0 < float(loss.value) < 2e-12

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(2)
        b = 8
        p = rng.uniform(0.05, 0.95, size=(b, 1))
        g = rng.integers(0, 2, size=b)
        loss = gender_loss(ad.constant(p), g)
        expected = -np.mean([gi * math.log(pi) + (1 - gi) * math.log(1 - pi)
                             for pi, gi in zip(p[:, 0], g)])
        np.testing.assert_allclose(loss.value, expected, atol=1e-12)


class TestLocationLoss:
    def test_uniform_seven_classes(self):
        loss = location_loss(ad.constant(np.full((1, 7), 1.0 / 7.0)), np.array([3]))
        np.testing.assert_allclose(loss.value, math.log(7.0), atol=1e-12)

    def test_one_hot_at_gold(self):
        p = np.zeros((1, 4))
        p[0, 2] = 1.0
        loss = location_loss(ad.constant(p), np.array([2]))
        assert float(loss.value) == 0.0

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(3)
        b, m = 6, 5
        p = rng.random((b, m)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        gold = rng.integers(0, m, size=b)
        loss = location_loss(ad.constant(p), gold)
        expected = -np.mean([math.log(p[i, gold[i]]) for i in range(b)])
        np.testing.assert_allclose(loss.value, expected, atol=1e-12)


class TestTotalLoss:
    def test_emotion_only_when_attribute_weights_zero(self):
        cfg = TrainingConfig(lambda1=2.0, lambda2=0.0, lambda3=0.0)
        jy, jg, jl = ad.constant(1.5), ad.constant(0.7), ad.constant(0.9)
        np.testing.assert_allclose(total_loss(jy, jg, jl, cfg).value, 3.0, atol=1e-15)

    def test_unit_weights_plain_sum(self):
        cfg = TrainingConfig()  # 1:1:1 default
        jy, jg, jl = ad.constant(1.5), ad.constant(0.7), ad.constant(0.9)
        np.testing.assert_allclose(total_loss(jy, jg, jl, cfg).value, 3.1, atol=1e-15)

    def test_encoder_sign_pattern_dual_graph(self):
        """grad_f(J_total) = l1*grad_f(J_y) - l2*grad_f(J_gend) - l3*grad_f(J_loc)."""
        cfg = TrainingConfig(lambda1=1.0, lambda2=0.7, lambda3=1.3,
                             l2_lambda=0.0, dropout_rate=0.0)
        rng = np.random.default_rng(4)
        batch = [make_post(rng, 5), make_post(rng, 3)]

        def grads(component):
            model = small_model("NPD", seed=17)
            model.wiring = model.wiring._replace(reversal=component == "total")
            fwd = model.forward(batch, train_mode=True)
            jy, jg, jl, total = batch_losses(model, fwd, batch, cfg)
            ad.backward({"total": total, "jy": jy, "jg": jg, "jl": jl}[component])
            return {k: v.grad.copy() for k, v in model.params.items()
                    if k.startswith("f.")}

        g_total = grads("total")
        g_y, g_g, g_l = grads("jy"), grads("jg"), grads("jl")
        for name in g_total:
            expected = 1.0 * g_y[name] - 0.7 * g_g[name] - 1.3 * g_l[name]
            np.testing.assert_allclose(g_total[name], expected, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_head_partitions_get_positive_gradients(self):
        cfg = TrainingConfig(l2_lambda=0.0, dropout_rate=0.0)
        rng = np.random.default_rng(5)
        batch = [make_post(rng, 4)]
        model = small_model("NPD", seed=18)
        fwd = model.forward(batch, train_mode=True)
        jy, jg, jl, total = batch_losses(model, fwd, batch, cfg)
        ad.backward(total)
        total_g = {k: v.grad.copy() for k, v in model.params.items()}

        model2 = small_model("NPD", seed=18)
        fwd2 = model2.forward(batch, train_mode=True)
        _, jg2, _, _ = batch_losses(model2, fwd2, batch, cfg)
        ad.backward(jg2)
        for k in model2.params:
            if k.startswith("g."):
                np.testing.assert_allclose(total_g[k], model2.params[k].grad,
                                           rtol=0, atol=1e-12)


class TestAdaGrad:
    def test_zero_gradient_no_change(self):
        p = ad.param([1.0, -2.0])
        opt = AdaGrad({"p": p}, mu=0.1)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])
        np.testing.assert_array_equal(opt.acc["p"], 0.0)

    def test_first_step_closed_form(self):
        p = ad.param([1.0])
        opt = AdaGrad({"p": p}, mu=0.1)
        p.grad[...] = 3.0
        opt.step()
        expected = 1.0 - 0.1 * 3.0 / (3.0 + 1e-8)
        np.testing.assert_allclose(p.value, [expected], atol=1e-15)
        np.testing.assert_array_equal(p.grad, 0.0)  # grads zeroed by the step

    def test_second_equal_step_smaller(self):
        p = ad.param([0.0])
        opt = AdaGrad({"p": p}, mu=0.1)
        p.grad[...] = 2.0
        opt.step()
        first = -float(p.value[0])
        p.grad[...] = 2.0
        opt.step()
        second = -float(p.value[0]) - first
        assert 0.0 < second < first

    def test_accumulator_monotone(self):
        p = ad.param(np.zeros(3))
        opt = AdaGrad({"p": p}, mu=0.05)
        prev = opt.acc["p"].copy()
        rng = np.random.default_rng(6)
        for _ in range(5):
            p.grad[...] = rng.standard_normal(3)
            opt.step()
            assert np.all(opt.acc["p"] >= prev)
            prev = opt.acc["p"].copy()

    def test_l2_only_gradients_decay_monotonically(self):
        w = ad.param(np.array([0.5, -0.8, 0.3]))
        opt = AdaGrad({"w": w}, mu=0.05)
        prev = np.abs(w.value).copy()
        for _ in range(10):
            loss = ad.weighted_total([ad.sum_squares([w])], [0.05])
            ad.backward(loss)
            opt.step()
            cur = np.abs(w.value)
            assert np.all(cur <= prev + 1e-15)
            prev = cur.copy()
        assert np.all(np.abs(w.value) < np.array([0.5, 0.8, 0.3]))


class TestClip:
    def test_large_gradients_scaled_to_cap(self):
        p = ad.param(np.zeros(4))
        p.grad[...] = 10.0
        clip_global_norm({"p": p}, 5.0)
        np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 5.0, atol=1e-12)

    def test_small_gradients_untouched(self):
        p = ad.param(np.zeros(4))
        p.grad[...] = 0.1
        clip_global_norm({"p": p}, 5.0)
        np.testing.assert_array_equal(p.grad, 0.1)


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_training_step_leaves_no_cyclic_garbage(variant):
    """No backward closure refers to its own node, so a step's graph holds no
    reference cycle and reference counting alone frees it."""
    cfg = TrainingConfig(seed=20)
    rng = np.random.default_rng(20)
    batch = [make_post(rng, 5), make_post(rng, 3), make_post(rng, 7)]
    model = small_model(variant, seed=20, finetune_embeddings=True)
    opt = AdaGrad(model.params, cfg.mu)
    gc.collect()
    gc.disable()
    try:
        model.zero_grads()
        fwd = model.forward(batch, train_mode=True, rng=rng, dropout_rate=cfg.dropout_rate)
        losses = batch_losses(model, fwd, batch, cfg)
        ad.backward(losses[-1])
        clip_global_norm(model.params, cfg.grad_clip)
        opt.step()
        del fwd, losses
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_eval_leaves_no_cyclic_garbage(variant):
    """No eval graph is a reference cycle, so reference counting alone frees
    it: an eval-mode forward, the one evaluate runs, keeps no closure at
    all."""
    rng = np.random.default_rng(23)
    posts = [make_post(rng, k) for k in (5, 3, 7, 1, 4)]
    model = small_model(variant, seed=23)
    gc.collect()
    gc.disable()
    try:
        model.forward(posts)
        after_forward = gc.collect()
        evaluate(model, posts, batch_size=2)
        after_evaluate = gc.collect()
    finally:
        gc.enable()
    assert (after_forward, after_evaluate) == (0, 0)


def test_npd_train_step_builds_no_padded_node():
    """The encoder runs on live (step, post) pairs only: no node of a training
    step's graph has a row for every cell of the padded [b x T] batch."""
    rng = np.random.default_rng(21)
    lengths = [1, 9, 4]
    batch = [make_post(rng, k) for k in lengths]
    model = small_model("NPD", seed=21, finetune_embeddings=True)
    cfg = TrainingConfig(seed=21)
    fwd = model.forward(batch, train_mode=True, rng=rng, dropout_rate=cfg.dropout_rate)
    loss = batch_losses(model, fwd, batch, cfg)[-1]
    nodes = ad.graph_order(loss)
    padded = len(batch) * max(lengths)
    assert [n for n in nodes if n.value.ndim and n.value.shape[0] == padded] == []
    assert any(n.op == "lstm_seq" and n.value.shape[0] == sum(lengths) for n in nodes)
    ad.backward(loss)


# every op a training step builds, over all variants with frozen and
# fine-tuned embeddings
TRAIN_STEP_OPS = {"affine", "attention_pool", "concat", "const", "dropout", "grad_reverse",
                  "lstm_seq", "nll", "param", "rows", "sigmoid", "softmax_rows",
                  "sum_squares", "weighted_total"}


def test_training_step_op_set():
    ops = set()
    for variant in VARIANT_NAMES:
        for finetune in (False, True):
            rng = np.random.default_rng(22)
            batch = [make_post(rng, k) for k in (5, 3, 7)]
            model = small_model(variant, seed=22, finetune_embeddings=finetune)
            cfg = TrainingConfig(seed=22)
            fwd = model.forward(batch, train_mode=True, rng=rng, dropout_rate=cfg.dropout_rate)
            ops |= {n.op for n in ad.graph_order(batch_losses(model, fwd, batch, cfg)[-1])}
    assert ops == TRAIN_STEP_OPS


def tiny_dataset(rng, n, m=5):
    return [make_post(rng, int(rng.integers(2, 7)), m=m) for _ in range(n)]


def tiny_embedding(rng, dim=6):
    from test_model import VOCAB

    return rng.standard_normal((VOCAB, dim)) * 0.3


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        rng = np.random.default_rng(7)
        cfg = TrainingConfig(max_epochs=0, seed=3)
        result = train(tiny_dataset(rng, 12), tiny_dataset(rng, 4), "LSTM", cfg,
                       tiny_embedding(rng), num_locations=5,
                       dims=ModelDims(hidden_dim=4))
        assert result.log == []
        fresh = build_model("LSTM", result.model.embedding, 5, 3, dims=ModelDims(hidden_dim=4))
        for name in fresh.params:
            np.testing.assert_array_equal(result.model.params[name].value,
                                          fresh.params[name].value)

    def test_manifest_holds_the_model_not_the_run(self):
        """train records how to rebuild the model and the default tokenizer;
        the run's split is npd train's to add."""
        rng = np.random.default_rng(7)
        result = train(tiny_dataset(rng, 12), [], "NPD", TrainingConfig(max_epochs=0, seed=3),
                       tiny_embedding(rng), num_locations=5, dims=ModelDims(hidden_dim=4),
                       vocab_hash="abc")
        manifest = result.model.manifest
        assert manifest["tokenizer_mode"] == "whitespace" and "split_seed" not in manifest
        assert set(manifest) == {"variant", "embed_dim", "hidden_dim", "attention_dim",
                                 "head_hidden_dim", "num_locations", "lambda_rev",
                                 "finetune_embeddings", "seed", "vocab_hash", "tokenizer_mode"}

    def test_zero_attribute_weights_freeze_discriminators(self):
        rng = np.random.default_rng(8)
        cfg = TrainingConfig(max_epochs=2, lambda2=0.0, lambda3=0.0, seed=4,
                             batch_size=8)
        emb = tiny_embedding(rng)
        result = train(tiny_dataset(rng, 24), tiny_dataset(rng, 6), "NPD", cfg,
                       emb, num_locations=5, dims=ModelDims(hidden_dim=4))
        fresh = build_model("NPD", emb, 5, 4, dims=ModelDims(hidden_dim=4))
        for name in ("g.w", "g.b", "l.w", "l.b"):
            np.testing.assert_array_equal(result.model.params[name].value,
                                          fresh.params[name].value, err_msg=name)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(9)
        data = tiny_dataset(rng, 30)
        dev = tiny_dataset(rng, 8)
        emb = tiny_embedding(rng)
        cfg = TrainingConfig(max_epochs=3, seed=11, batch_size=8, mu=0.05)

        def run():
            res = train(data, dev, "NPD", cfg, emb, num_locations=5,
                        dims=ModelDims(hidden_dim=4))
            return res.model.state(), [(r.j_y, r.j_gend, r.j_loc, r.dev_f1) for r in res.log]

        s1, log1 = run()
        s2, log2 = run()
        assert log1 == log2
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])

    def test_loss_decreases_when_learnable(self):
        rng = np.random.default_rng(10)
        # plant a deterministic token -> emotion mapping so J_y is reducible
        posts = []
        for _ in range(120):
            e = int(rng.integers(5))
            bits = np.zeros(5, dtype=np.int64)
            bits[e] = 1
            posts.append(TokenizedPost(ids=[2 + e] * 4, emotion_bits=bits,
                                       gender_bit=int(rng.integers(2)),
                                       location=int(rng.integers(5))))
        cfg = TrainingConfig(max_epochs=5, seed=12, batch_size=16, mu=0.2,
                             dropout_rate=0.0)
        result = train(posts, [], "LSTM", cfg, tiny_embedding(rng),
                       num_locations=5, dims=ModelDims(hidden_dim=8))
        assert result.log[-1].j_y < result.log[0].j_y

    def test_divergence_names_offending_tensor(self):
        rng = np.random.default_rng(13)
        cfg = TrainingConfig(max_epochs=1, seed=5)
        emb = tiny_embedding(rng)
        emb[2:] = np.nan
        data = tiny_dataset(rng, 12)  # one batch, padded to its longest post
        with pytest.raises(DivergenceError) as caught:
            train(data, [], "LSTM", cfg, emb, num_locations=5,
                  dims=ModelDims(hidden_dim=4))
        # the frozen embeddings enter the graph as one constant, the whole
        # [V x e] table, which lstm_seq gathers from
        assert str(caught.value).endswith(
            f"first bad tensor: const[{emb.shape[0]}, {emb.shape[1]}]")

    def test_empty_train_split_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ContractError):
            train([], [], "LSTM", TrainingConfig(), tiny_embedding(rng), 5)

    def test_unknown_variant_names_the_choices(self):
        rng = np.random.default_rng(15)
        choices = ", ".join(VARIANT_NAMES)
        with pytest.raises(ConfigError, match=f"^variant must be one of {choices}, got 'BOGUS'$"):
            train(tiny_dataset(rng, 4), [], "BOGUS", TrainingConfig(), tiny_embedding(rng), 5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainingConfig(mu=0.0).validate()
        with pytest.raises(ConfigError):
            TrainingConfig(dropout_rate=1.0).validate()
        with pytest.raises(ConfigError):
            TrainingConfig(lambda2=-1.0).validate()


@pytest.fixture(scope="module")
def desk_splits():
    """A 600-post synthetic corpus, its seed-0 split and a random [V x 20]
    embedding table, small enough that the default clip never fires below."""
    cfg = corpus.SynthConfig(n_posts=600, seed=0)
    posts = corpus.synthesize(cfg)
    vocab = text.build_vocab([text.tokenize(p.text) for p in posts], 2000)
    splits = [corpus.encode(part, vocab) for part in corpus.split(posts, 0.7, 0)]
    table = np.random.default_rng(0).normal(0.0, 0.1, size=(len(vocab), 20))
    return splits, table, cfg.m_locations


# (variant, its TrainingConfig and ModelDims changes) against (variant with
# the part removed): each pair trains its f. and y. params identically
IDENTITIES = [
    (("NPD", {}, {"lambda_rev": 0.0}), "LSTM_ATTENTION"),
    (("LSTM_ADVERSARIAL", {}, {"lambda_rev": 0.0}), "LSTM"),
    (("LSTM_ATTRIBUTES", {"lambda2": 0.0, "lambda3": 0.0}, {}), "LSTM"),
    (("NPD", {"lambda2": 0.0, "lambda3": 0.0}, {}), "LSTM_ATTENTION"),
]
IDENTITY_IDS = ["NPD-rev0", "ADVERSARIAL-rev0", "ATTRIBUTES-lambda0", "NPD-lambda0"]
# At lambda_rev 0 the discriminators still get gradient from J_g and J_l,
# and the clip's one norm over every partition lets it shrink the encoder
# and head update (ROADMAP item 12). At lambda2 = lambda3 = 0 their
# gradient is 0 and leaves the norm alone
CLIP_COUPLED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 12: the global clip norm counts the discriminators' "
    "gradient, so at lambda_rev 0 it couples them to the encoder and heads")
DEFAULT_CLIP = TrainingConfig().grad_clip
CLIP_CASES = [pytest.param(*case, DEFAULT_CLIP, id=name)
              for case, name in zip(IDENTITIES, IDENTITY_IDS)]
CLIP_CASES += [pytest.param(*case, 0.5, id=f"{name}-clip0.5",
                            marks=[CLIP_COUPLED] if name.endswith("rev0") else [])
               for case, name in zip(IDENTITIES, IDENTITY_IDS)]


@pytest.mark.parametrize("with_part,without,grad_clip", CLIP_CASES)
def test_ablation_identity(desk_splits, monkeypatch, with_part, without, grad_clip):
    """A variant whose extra part gets no weight trains the encoder and the
    emotion heads bit for bit as the variant without that part: _param_specs
    draws the g. and l. params last, and both runs share the dropout stream.
    The clip takes one norm over every partition. At the default clip it
    never fires here, which the test checks; at 0.5 it fires, and the
    identity then holds only where the extra part's gradient is 0."""
    (train_posts, dev_posts, _), table, m = desk_splits
    norms = []

    def noting_clip(params, max_norm):
        norms.append(clip_global_norm(params, max_norm))
        return norms[-1]

    monkeypatch.setattr(training, "clip_global_norm", noting_clip)
    variant, cfg_changes, dims_changes = with_part

    def run(variant, cfg_changes, dims_changes):
        cfg = TrainingConfig(mu=3e-2, max_epochs=3, patience=3, seed=0, grad_clip=grad_clip,
                             **cfg_changes)
        dims = ModelDims(hidden_dim=16, finetune_embeddings=True, **dims_changes)
        model = train(train_posts, dev_posts, variant, cfg, table, m, dims=dims).model
        return {k: v.value for k, v in model.params.items() if k[:2] in ("f.", "y.")}

    got = run(variant, cfg_changes, dims_changes)
    want = run(without, {}, {})
    if grad_clip == DEFAULT_CLIP:
        assert norms and max(norms) <= grad_clip
    else:
        assert max(norms) > grad_clip
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
