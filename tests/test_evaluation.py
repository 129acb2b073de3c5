"""F1 scoring, evaluation, and ablation-harness (training.ablate) tests.

Every F1 the evaluator reports is re-derived by a brute-force recount over
raw prediction/gold pairs.
"""

import dataclasses
import threading

import numpy as np
import pytest

from npd import autodiff as ad
from npd.corpus import EMOTIONS
from npd.errors import ConfigError, ContractError
from npd.evaluation import (
    ConfusionCounts,
    EvalReport,
    evaluate,
    f1_score,
    format_report_table,
    seed_mean_average_f1,
)
from npd.model import VARIANT_NAMES, ForwardResult, ModelDims
from npd.training import TrainingConfig, ablate, train

from test_model import VOCAB, make_post, small_model
from test_training import tiny_dataset, tiny_embedding


def brute_force_f1(predicted, gold):
    """Recount oracle: per-emotion F1 from scratch, looping over posts."""
    out = []
    for j in range(5):
        tp = fp = fn = 0
        for p, g in zip(predicted, gold):
            if p[j] == 1 and g[j] == 1:
                tp += 1
            elif p[j] == 1 and g[j] == 0:
                fp += 1
            elif p[j] == 0 and g[j] == 1:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return out


class StubModel:
    """Duck-typed model returning canned per-post present-probabilities.

    Row i of probs belongs to posts[i]; forward looks each post up by
    identity, so any batching order gets each post's own row."""

    def __init__(self, probs_by_post, posts):
        self.probs = np.asarray(probs_by_post, dtype=np.float64)  # [n x 5]
        self.row = {id(post): i for i, post in enumerate(posts)}
        self.variant = "LSTM"
        self.manifest = {"seed": 0}

    def forward(self, batch, train_mode=False):
        take = self.probs[[self.row[id(post)] for post in batch]]
        nodes = [ad.constant(np.stack([1.0 - take[:, j], take[:, j]], axis=1))
                 for j in range(5)]
        return ForwardResult(emotion_probs=nodes, gender_prob=None,
                             location_probs=None)


class TestF1:
    def test_perfect(self):
        counts = ConfusionCounts.zeros()
        counts.tp[0] = 10
        assert f1_score(counts, 0) == 1.0

    def test_zero_tp_is_zero(self):
        counts = ConfusionCounts.zeros()
        counts.fp[1] = 4
        counts.fn[1] = 7
        assert f1_score(counts, 1) == 0.0

    def test_hand_case(self):
        counts = ConfusionCounts.zeros()
        counts.tp[2], counts.fp[2], counts.fn[2] = 3, 1, 2
        np.testing.assert_allclose(f1_score(counts, 2), 2 * 0.45 / 1.35, atol=1e-15)
        # cross-check against the brute-force recount on an equivalent set
        predicted = [[0, 0, 1, 0, 0]] * 4 + [[0, 0, 0, 0, 0]] * 2
        gold = [[0, 0, 1, 0, 0]] * 3 + [[0, 0, 0, 0, 0]] + [[0, 0, 1, 0, 0]] * 2
        np.testing.assert_allclose(brute_force_f1(predicted, gold)[2],
                                   f1_score(counts, 2), atol=1e-15)


class TestEvaluate:
    def test_always_absent_model_scores_zero(self):
        rng = np.random.default_rng(1)
        n = 20
        posts = tiny_dataset(rng, n)
        stub = StubModel(np.full((n, 5), 0.1), posts)
        for j in range(5):  # ensure at least one positive per emotion
            posts[j].emotion_bits[...] = 0
            posts[j].emotion_bits[j] = 1
        report = evaluate(stub, posts)
        assert report.f1 == [0.0] * 5
        assert report.average_f1 == 0.0

    def test_gold_predicting_model_scores_one(self):
        rng = np.random.default_rng(2)
        posts = tiny_dataset(rng, 15)
        for j in range(5):
            posts[j].emotion_bits[...] = 0
            posts[j].emotion_bits[j] = 1
        probs = np.stack([p.emotion_bits for p in posts]).astype(float)
        probs = probs * 0.8 + 0.1  # 0.9 where present, 0.1 where absent
        report = evaluate(StubModel(probs, posts), posts)
        assert report.f1 == [1.0] * 5
        assert report.average_f1 == 1.0

    def test_counts_match_brute_force_recount(self):
        rng = np.random.default_rng(3)
        n = 60
        posts = tiny_dataset(rng, n)
        probs = rng.random((n, 5))
        report = evaluate(StubModel(probs, posts), posts, batch_size=17)
        predicted = (probs > 0.5).astype(int)
        gold = np.stack([p.emotion_bits for p in posts])
        expected = brute_force_f1(predicted.tolist(), gold.tolist())
        np.testing.assert_allclose(report.f1, expected, atol=1e-12)
        for j in range(5):
            assert (report.counts.tp[j] + report.counts.fp[j] +
                    report.counts.fn[j] + report.counts.tn[j]) == n

    def test_side_effect_free_and_repeatable(self):
        rng = np.random.default_rng(4)
        model = small_model("NPD", seed=6)
        posts = tiny_dataset(rng, 25)
        state_before = model.state()
        r1 = evaluate(model, posts)
        r2 = evaluate(model, posts)
        assert r1.f1 == r2.f1
        assert r1.average_f1 == r2.average_f1
        for name, arr in model.state().items():
            np.testing.assert_array_equal(arr, state_before[name])
            np.testing.assert_array_equal(model.params[name].grad, 0.0)

    def test_report_independent_of_batch_size_and_order(self):
        rng = np.random.default_rng(8)
        model = small_model("NPD", seed=2)
        posts = tiny_dataset(rng, 40)
        shuffled = [posts[i] for i in rng.permutation(len(posts))]
        runs = [evaluate(model, posts, batch_size=b) for b in (1, 7, 128)]
        runs.append(evaluate(model, shuffled))
        ref = runs[0]
        assert ref.counts.tp.sum() + ref.counts.fp.sum() > 0  # some present predictions
        assert ref.counts.tn.sum() + ref.counts.fn.sum() > 0  # and some absent ones
        for r in runs[1:]:
            for k in ("tp", "fp", "fn", "tn"):
                np.testing.assert_array_equal(getattr(r.counts, k), getattr(ref.counts, k))
            assert r.f1 == ref.f1
            assert r.gender_accuracy == ref.gender_accuracy
            assert r.location_accuracy == ref.location_accuracy

    @pytest.mark.parametrize("bad_length", [2, 6, 10], ids=["batch-0", "batch-1", "batch-2"])
    def test_out_of_range_id_in_any_batch_is_raised(self, bad_length):
        """Posts of lengths 1 to 12 form batches of 4 with lengths 1-4, 5-8
        and 9-12; an out-of-range id in any one of them raises."""
        rng = np.random.default_rng(33)
        posts = [make_post(rng, int(n)) for n in rng.permutation(range(1, 13))]
        bad = next(p for p in posts if len(p.ids) == bad_length)
        bad.ids[-1] = VOCAB + 3
        with pytest.raises(ContractError):
            evaluate(small_model("NPD"), posts, batch_size=4)

    def test_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("evaluate started a thread"))
        report = evaluate(small_model("NPD"), tiny_dataset(np.random.default_rng(34), 20),
                          batch_size=3)
        assert report.counts.tp.sum() + report.counts.tn.sum() + report.counts.fp.sum() \
            + report.counts.fn.sum() == 5 * 20

    def test_empty_set_rejected(self):
        with pytest.raises(ContractError):
            evaluate(small_model("LSTM"), [])

    def test_reference_average_reconstruction(self):
        published = (0.657, 0.510, 0.459, 0.135, 0.127)
        assert abs(float(np.mean(published)) - 0.378) <= 0.001


class TestAblate:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.splits = (tiny_dataset(rng, 24), tiny_dataset(rng, 6), tiny_dataset(rng, 10))
        self.embedding = tiny_embedding(rng)
        self.cfg = TrainingConfig(max_epochs=2, batch_size=8, mu=0.05)
        self.dims = ModelDims(hidden_dim=4)

    def test_single_pair_equals_direct_run(self):
        reports = ablate(self.splits, ["LSTM"], [7], self.cfg, self.embedding, 5,
                         dims=self.dims)
        assert len(reports) == 1
        cfg = dataclasses.replace(self.cfg, seed=7)
        direct = evaluate(train(self.splits[0], self.splits[1], "LSTM", cfg,
                                self.embedding, 5, dims=self.dims).model,
                          self.splits[2])
        assert reports[0].f1 == direct.f1
        assert reports[0].average_f1 == direct.average_f1

    def test_identical_seeds_identical_rows(self):
        reports = ablate(self.splits, ["LSTM"], [3, 3], self.cfg,
                         self.embedding, 5, dims=self.dims)
        assert reports[0].f1 == reports[1].f1

    def test_worker_processes_give_the_serial_reports(self):
        args = (self.splits, ["NOT_A_VARIANT", "LSTM", "NPD"], [1, 2], self.cfg,
                self.embedding, 5)
        serial = ablate(*args, dims=self.dims, jobs=1)
        pooled = ablate(*args, dims=self.dims, jobs=2)
        assert [r.error is None for r in serial] == [False, False, True, True, True, True]
        assert format_report_table(pooled) == format_report_table(serial)
        for a, b in zip(serial, pooled):
            assert (a.variant, a.seed, a.error) == (b.variant, b.seed, b.error)
            assert a.f1 == b.f1 or a.error is not None
            assert (a.gender_accuracy, a.location_accuracy) == \
                (b.gender_accuracy, b.location_accuracy)

    @pytest.mark.parametrize("cfg,dims,named", [
        (TrainingConfig(mu=float("nan")), ModelDims(hidden_dim=4), "mu"),
        (TrainingConfig(), ModelDims(hidden_dim=0), "hidden_dim"),
        (TrainingConfig(), ModelDims(lambda_rev=-1.0), "lambda_rev"),
    ], ids=["mu", "hidden_dim", "lambda_rev"])
    def test_bad_config_raises_before_any_run(self, monkeypatch, cfg, dims, named):
        monkeypatch.setattr("npd.training.train", lambda *a, **k: pytest.fail("a run started"))
        with pytest.raises(ConfigError, match=named):
            ablate(self.splits, ["LSTM"], [1], cfg, self.embedding, 5, dims=dims)

    def test_failed_run_recorded_and_grid_continues(self):
        reports = ablate(self.splits, ["NOT_A_VARIANT", "LSTM"], [1], self.cfg,
                         self.embedding, 5, dims=self.dims)
        assert reports[0].error is not None
        assert np.isnan(reports[0].average_f1)
        assert reports[1].error is None

    def test_seed_mean_skips_failures(self):
        reports = [
            EvalReport("LSTM", 1, [0.2] * 5, 0.2),
            EvalReport("LSTM", 2, [0.4] * 5, 0.4),
            EvalReport.failed("LSTM", 3, "boom"),
        ]
        means = seed_mean_average_f1(reports)
        np.testing.assert_allclose(means["LSTM"], 0.3)

    def test_table_format(self):
        reports = [EvalReport("NPD", 1, [0.1, 0.2, 0.3, 0.4, 0.5], 0.3)]
        table = format_report_table(reports)
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == ["Variant", "Seed", "Happiness", "Sadness",
                                        "Anger", "Surprise", "Fear", "Average"]
        cells = lines[1].split("\t")
        assert cells[0] == "NPD" and cells[1] == "1"
        assert cells[2] == "0.100000" and cells[-1] == "0.300000"

    def test_requires_variants_and_seeds(self):
        with pytest.raises(ContractError):
            ablate(self.splits, [], [1], self.cfg, self.embedding, 5)
