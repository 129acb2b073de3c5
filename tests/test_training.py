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
from npd.corpus import TokenizedPost
from npd.errors import ConfigError, ContractError, DivergenceError
from npd.model import build_model
from npd.training import (
    AdaGrad,
    ModelDims,
    TrainingConfig,
    batch_losses,
    clip_global_norm,
    emotion_loss,
    gender_loss,
    location_loss,
    total_loss,
    train,
)

from test_model import ALL_VARIANTS, make_post, param_values, small_model


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
            fwd = model.forward(batch)
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
        fwd = model.forward(batch)
        jy, jg, jl, total = batch_losses(model, fwd, batch, cfg)
        ad.backward(total)
        total_g = {k: v.grad.copy() for k, v in model.params.items()}

        model2 = small_model("NPD", seed=18)
        fwd2 = model2.forward(batch)
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
        opt = AdaGrad({"p": p}, mu=0.1, eps=1e-8)
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
            loss = ad.scale_shift(ad.sum_squares([w]), 0.05)
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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_training_step_leaves_no_cyclic_garbage(variant):
    """backward drops each closure it runs and forward builds no node that
    nothing reads, so a step's graph is freed by reference counting alone."""
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
        fresh = build_model("LSTM", result.model.embedding, 5, 3, hidden_dim=4)
        for name in fresh.params:
            np.testing.assert_array_equal(result.model.params[name].value,
                                          fresh.params[name].value)

    def test_zero_attribute_weights_freeze_discriminators(self):
        rng = np.random.default_rng(8)
        cfg = TrainingConfig(max_epochs=2, lambda2=0.0, lambda3=0.0, seed=4,
                             batch_size=8)
        emb = tiny_embedding(rng)
        result = train(tiny_dataset(rng, 24), tiny_dataset(rng, 6), "NPD", cfg,
                       emb, num_locations=5, dims=ModelDims(hidden_dim=4))
        fresh = build_model("NPD", emb, 5, 4, hidden_dim=4)
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
        # the frozen embeddings enter the graph as one [L x e] constant, one
        # row per live (step, post) pair
        pairs = sum(len(p.ids) for p in data)
        assert caught.value.tensor_name == f"const[{pairs}, {emb.shape[1]}]"
        assert caught.value.tensor_name in str(caught.value)

    def test_empty_train_split_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ContractError):
            train([], [], "LSTM", TrainingConfig(), tiny_embedding(rng), 5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainingConfig(mu=0.0).validate()
        with pytest.raises(ConfigError):
            TrainingConfig(dropout_rate=1.0).validate()
        with pytest.raises(ConfigError):
            TrainingConfig(lambda2=-1.0).validate()
