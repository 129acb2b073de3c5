"""Corpus IO, splitting, synthesis, and encoding tests.

The planted-signal checks use an independent frequency-based token-presence
classifier as the oracle for whether attribute information is textually
recoverable.
"""

import dataclasses
import hashlib
import json
import math
import re
from bisect import bisect_left

import numpy as np
import pytest

from npd.cli import main
from npd.corpus import (
    EMOTIONS,
    GENDERS,
    Post,
    SynthConfig,
    encode,
    load_with_meta,
    save,
    split,
    synthesize,
)
from npd.errors import ConfigError, DataError
from npd.seeding import substream
from npd.text import build_vocab, tokenize


def freq_classifier_accuracy(posts, label_fn, n_classes):
    """Naive-Bayes-style token-presence classifier, fit on the first 70%.

    Independent oracle for 'is this label recoverable from the text'.
    """
    cut = int(0.7 * len(posts))
    train, test = posts[:cut], posts[cut:]
    counts = [dict() for _ in range(n_classes)]
    totals = [0] * n_classes
    for p in train:
        y = label_fn(p)
        for tok in p.text.split():
            counts[y][tok] = counts[y].get(tok, 0) + 1
            totals[y] += 1
    correct = 0
    for p in test:
        scores = []
        for c in range(n_classes):
            s = 0.0
            denom = totals[c] + 1.0
            for tok in p.text.split():
                s += math.log((counts[c].get(tok, 0) + 1.0) / denom)
            scores.append(s)
        if scores.index(max(scores)) == label_fn(p):
            correct += 1
    return correct / len(test)


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_with_meta(path)[0] == []

    def test_single_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = {"text": "w1 w2", "emotions": ["happiness"], "gender": "female", "location": 2}
        path.write_text(json.dumps(rec) + "\n")
        posts, m = load_with_meta(path)
        assert len(posts) == 1
        assert posts[0].emotions == {"happiness"}
        assert m == 3

    def test_unknown_emotion_named_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = {"text": "a", "emotions": [], "gender": "male", "location": 0}
        bad = {"text": "b", "emotions": ["joy"], "gender": "male", "location": 0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match=r"2.*'joy'"):
            load_with_meta(path)[0]

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "a", "emotions": [], "gender": "male", "location": 0}\n{oops\n')
        with pytest.raises(DataError, match=r":2:"):
            load_with_meta(path)[0]

    def test_header_declares_m(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = {"text": "a", "emotions": [], "gender": "male", "location": 1}
        path.write_text(json.dumps({"m": 7}) + "\n" + json.dumps(rec) + "\n")
        _, m = load_with_meta(path)
        assert m == 7

    def test_roundtrip_exact(self, tmp_path):
        cfg = SynthConfig(n_posts=50, seed=4)
        posts = synthesize(cfg)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save(p1, posts, m=cfg.m_locations)
        reloaded, m = load_with_meta(p1)
        assert m == cfg.m_locations
        save(p2, reloaded, m=m)
        assert p1.read_bytes() == p2.read_bytes()
        assert [(p.text, sorted(p.emotions), p.gender, p.location) for p in posts] == \
               [(p.text, sorted(p.emotions), p.gender, p.location) for p in reloaded]


GOOD_RECORD = {"text": "w1 w2", "emotions": ["fear"], "gender": "male", "location": 1}

# (case, the bad record, what the error must name); a header record is line 1
# of its file, any other record is line 2, after the header {"m": 3}. A bytes
# record is written as it is, for bytes that JSON cannot carry
MALFORMED_RECORDS = [
    ("m not a number", {"m": "abc"}, "header m"),
    ("m fractional", {"m": 2.7}, "header m"),
    ("m negative", {"m": -1}, "header m"),
    ("m bool", {"m": True}, "header m"),
    ("text number", {**GOOD_RECORD, "text": 5}, "text"),
    ("text null", {**GOOD_RECORD, "text": None}, "text"),
    ("emotions string", {**GOOD_RECORD, "emotions": "fear"}, "emotions"),
    ("emotions null", {**GOOD_RECORD, "emotions": None}, "emotions"),
    ("emotions nested list", {**GOOD_RECORD, "emotions": [[1]]}, "emotions"),
    ("emotions object", {**GOOD_RECORD, "emotions": {"fear": 1}}, "emotions"),
    ("gender number", {**GOOD_RECORD, "gender": 1}, "gender"),
    ("gender list", {**GOOD_RECORD, "gender": ["male"]}, "gender"),
    ("location bool", {**GOOD_RECORD, "location": True}, "location"),
    ("location fractional", {**GOOD_RECORD, "location": 1.5}, "location"),
    ("location string", {**GOOD_RECORD, "location": "1"}, "location"),
    ("location null", {**GOOD_RECORD, "location": None}, "location"),
    ("location at the header's m", {**GOOD_RECORD, "location": 3}, "location"),
    ("text whitespace only", {**GOOD_RECORD, "text": " \t "}, "text"),
    ("text not UTF-8", b'{"text": "w1 \xff", "emotions": [], "gender": "male", "location": 1}',
     "UTF-8"),
]


class TestMalformedRecords:
    @pytest.mark.parametrize("case,record,names", MALFORMED_RECORDS,
                             ids=[c for c, _, _ in MALFORMED_RECORDS])
    def test_wrong_field_type(self, tmp_path, capsys, case, record, names):
        header = isinstance(record, dict) and "m" in record
        lines = [record, GOOD_RECORD] if header else [{"m": 3}, record]
        lineno = 1 if header else 2
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"".join((r if isinstance(r, bytes) else json.dumps(r).encode("utf-8"))
                                  + b"\n" for r in lines))
        where = f"{path}:{lineno}: "
        with pytest.raises(DataError) as caught:
            load_with_meta(str(path))
        message = str(caught.value)
        assert message.startswith(where) and names in message[len(where):]
        assert main(["embed", "--corpus", str(path), "--out", str(tmp_path / "e.txt")]) == 1
        assert where in capsys.readouterr().err


class TestSplit:
    def make_posts(self, n):
        return [Post(text=f"t{i}", emotions=set(), gender="female", location=0) for i in range(n)]

    def test_fractions_100(self):
        train, dev, test = split(self.make_posts(100), seed=1)
        assert (len(train), len(dev), len(test)) == (63, 7, 30)

    def test_deterministic(self):
        posts = self.make_posts(40)
        a = split(posts, seed=9)
        b = split(posts, seed=9)
        assert [[p.text for p in part] for part in a] == [[p.text for p in part] for part in b]

    def test_partition_is_exact(self):
        posts = self.make_posts(53)
        train, dev, test = split(posts, seed=2)
        combined = sorted(p.text for p in train + dev + test)
        assert combined == sorted(p.text for p in posts)

    def test_too_few_posts(self):
        with pytest.raises(ConfigError):
            split(self.make_posts(9), seed=0)


# sha256 of the bytes `save` writes (header included) for 300 posts of each
# config. They pin synthesize's draw order: a change that moves, adds or drops
# one rng draw changes the corpus and so the digest
GOLDEN_CORPORA = [
    ("planted", SynthConfig(n_posts=300, seed=1),
     "b10aa4b0053094fb6002699f31d394de50471aa8136fa3a56c1cce4d9022ea56"),
    ("null signal", SynthConfig.null_signal(n_posts=300, seed=2),
     "56a9602e5b91e6f5708e75ace49c2209f5b99dcccea4dc3a0ff0412db5c65695"),
    ("unconditioned markers",
     SynthConfig(n_posts=300, attribute_conditioned_markers=False, seed=3),
     "8a4e2db320209864f19fb4c1ea16794179b30ecdeee442671ee7cc219da2d32b"),
    ("three locations", SynthConfig(n_posts=300, m_locations=3, seed=4),
     "019093d7dcd1170eb5b2d8b5f93905124e8e7e70085ae43c51a6485773131ba9"),
    ("fixed length", SynthConfig(n_posts=300, min_len=12, max_len=12, seed=5),
     "530aad6133b3b191c557387089771985565ff95a17c9a4e03b0a09b8a2617e4b"),
]


def reference_synthesize(cfg: SynthConfig) -> list[Post]:
    """synthesize as a loop of numpy Generator calls on the "synth"
    substream, in the draw order its docstring lists: the reference that
    synthesize's raw-output draws must reproduce byte for byte."""
    cfg.validate()
    rng = substream(cfg.seed, "synth")
    random, integers = rng.random, rng.integers
    m = cfg.m_locations
    table = cfg.correlation_table().tolist()

    zipf_w = np.arange(1, cfg.neutral_tokens + 1, dtype=np.float64) ** (-cfg.zipf_exponent)
    zipf_cdf = np.cumsum(zipf_w / zipf_w.sum()).tolist()
    neutral = [f"neutral_{nid:04d}" for nid in range(cfg.neutral_tokens + 1)]

    p_g, p_l, p_e = cfg.gender_marker_prob, cfg.location_marker_prob, cfg.emotion_marker_prob
    n_mark = cfg.markers_per_attribute_value
    n_cell = cfg.emotion_markers_per_cell
    cells = ["f", "m"] + [f"loc{k}" for k in range(m)]
    gmark = [[f"gmark_{g}_{i:02d}" for i in range(n_mark)] for g in "fm"]
    lmark = [[f"lmark_{loc}_{i:02d}" for i in range(n_mark)] for loc in range(m)]
    emo = [[[f"emo_{name[:3]}_{cell}_{i:02d}" for i in range(n_cell)] for cell in cells]
           for name in EMOTIONS]

    posts = []
    for _ in range(cfg.n_posts):
        g = int(integers(2))
        loc = int(integers(m))
        present = [j for j in range(len(EMOTIONS)) if random() < table[j][g][loc]]
        length = int(integers(cfg.min_len, cfg.max_len + 1))
        tokens = []
        for _ in range(length):
            r = random()
            if r < p_g:
                tokens.append(gmark[g][integers(n_mark)])
            elif r < p_g + p_l:
                tokens.append(lmark[loc][integers(n_mark)])
            elif r < p_g + p_l + p_e and present:
                j = present[integers(len(present))]
                if cfg.attribute_conditioned_markers:
                    cell = g if random() < 0.5 else 2 + loc
                else:
                    cell = integers(len(cells))
                tokens.append(emo[j][cell][integers(n_cell)])
            else:
                tokens.append(neutral[bisect_left(zipf_cdf, random())])
        posts.append(Post(text=" ".join(tokens),
                          emotions={EMOTIONS[j] for j in present},
                          gender=GENDERS[g], location=loc))
    return posts


# configs for the reference comparison, each run at REFERENCE_SEEDS: one
# emotion present, min_len == max_len and one marker per cell all draw from
# one-value ranges
REFERENCE_CONFIGS = [
    ("planted", dict()),
    ("null signal", dataclasses.asdict(SynthConfig.null_signal())),
    ("unconditioned markers", dict(attribute_conditioned_markers=False)),
    ("fixed length", dict(min_len=12, max_len=12)),
    ("m 7, one marker per cell", dict(m_locations=7, markers_per_attribute_value=1,
                                      emotion_markers_per_cell=1)),
    ("emotion markers 0.9", dict(emotion_marker_prob=0.9, gender_marker_prob=0.05,
                                 location_marker_prob=0.05)),
]
REFERENCE_SEEDS = [0, 11, 2**32 - 1]


def saved_bytes(tmp_path, posts, m):
    path = tmp_path / "c.jsonl"
    save(path, posts, m=m)
    return path.read_bytes()


class TestSynthesize:
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    @pytest.mark.parametrize("case, fields", REFERENCE_CONFIGS,
                             ids=[case for case, _ in REFERENCE_CONFIGS])
    def test_matches_the_generator_reference(self, tmp_path, case, fields, seed):
        cfg = SynthConfig(**{**fields, "n_posts": 200, "seed": seed})
        m = cfg.m_locations
        assert saved_bytes(tmp_path, synthesize(cfg), m) == \
            saved_bytes(tmp_path, reference_synthesize(cfg), m)

    def test_default_config_matches_the_generator_reference(self, tmp_path):
        cfg = SynthConfig(n_posts=1000)
        assert saved_bytes(tmp_path, synthesize(cfg), cfg.m_locations) == \
            saved_bytes(tmp_path, reference_synthesize(cfg), cfg.m_locations)

    def test_cli_synthesizes_the_widest_seed(self, tmp_path):
        """Seed 2**32 - 1 keeps its stream; 2**32 is rejected (test_cli.py)."""
        cfg = SynthConfig(n_posts=40)
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n_posts": 40}))
        out = tmp_path / "cli.jsonl"
        assert main(["synth", "--config", str(config), "--seed", str(2**32 - 1),
                     "--out", str(out)]) == 0
        reference = reference_synthesize(dataclasses.replace(cfg, seed=2**32 - 1))
        assert out.read_bytes() == saved_bytes(tmp_path, reference, cfg.m_locations)

    @pytest.mark.parametrize("fields, named", [
        (dict(markers_per_attribute_value=2**32), "markers_per_attribute_value"),
        (dict(emotion_markers_per_cell=2**32), "emotion_markers_per_cell"),
        (dict(m_locations=2**32 - 2), "2 + m_locations"),
        (dict(min_len=1, max_len=2**32), "max_len - min_len + 1"),
        (dict(seed=2**32), "seed"),
        (dict(seed=-1), "seed"),
    ], ids=["gender and location markers", "emotion markers", "cells", "lengths",
            "seed 2**32", "seed -1"])
    def test_range_beyond_32_bits_rejected(self, fields, named):
        """synthesize's RawSampler serves integers(n) only for n < 2**32, and
        a seed is one 32-bit word of the substream key."""
        with pytest.raises(ConfigError, match=re.escape(named)):
            SynthConfig(**fields).validate()

    # a valid value other than the default for every SynthConfig field
    KNOB_VALUES = {
        "n_posts": 41, "m_locations": 3, "neutral_tokens": 50,
        "markers_per_attribute_value": 3, "emotion_markers_per_cell": 3,
        "gender_marker_prob": 0.3, "location_marker_prob": 0.3, "emotion_marker_prob": 0.6,
        "gender_tilt": 0.2, "location_tilt": 0.2, "attribute_conditioned_markers": False,
        "prevalence": (0.5, 0.1, 0.1, 0.1, 0.1), "min_len": 5, "max_len": 30,
        "zipf_exponent": 2.0, "seed": 1,
    }

    def test_every_field_changes_the_corpus(self):
        """No SynthConfig field is a dead knob: each one, moved off its
        default, changes a 40-post corpus. A new field must join
        KNOB_VALUES."""
        def drawn(**fields):
            posts = synthesize(SynthConfig(**{"n_posts": 40, **fields}))
            return [(p.text, sorted(p.emotions), p.gender, p.location) for p in posts]

        names = [f.name for f in dataclasses.fields(SynthConfig)]
        assert sorted(names) == sorted(self.KNOB_VALUES)
        default = drawn()
        for name in names:
            assert drawn(**{name: self.KNOB_VALUES[name]}) != default, name

    def test_deterministic(self):
        a = synthesize(SynthConfig(n_posts=100, seed=13))
        b = synthesize(SynthConfig(n_posts=100, seed=13))
        assert [p.text for p in a] == [p.text for p in b]
        assert [sorted(p.emotions) for p in a] == [sorted(p.emotions) for p in b]

    @pytest.mark.parametrize("case, cfg, digest", GOLDEN_CORPORA,
                             ids=[case for case, _, _ in GOLDEN_CORPORA])
    def test_golden_bytes(self, tmp_path, case, cfg, digest):
        for posts in (synthesize(cfg), reference_synthesize(cfg)):
            got = saved_bytes(tmp_path, posts, cfg.m_locations)
            assert hashlib.sha256(got).hexdigest() == digest

    def test_prevalence_marginals(self):
        cfg = SynthConfig(n_posts=6000, seed=21)
        posts = synthesize(cfg)
        for j, emo in enumerate(EMOTIONS):
            measured = sum(emo in p.emotions for p in posts) / len(posts)
            assert abs(measured - cfg.prevalence[j]) <= 0.02, (emo, measured)

    def test_happiness_target_matches_reference_share(self):
        cfg = SynthConfig()
        assert abs(cfg.prevalence[0] - 0.261) < 0.001

    def test_null_corpus_attributes_unrecoverable(self):
        posts = synthesize(SynthConfig.null_signal(n_posts=5000, seed=8))
        acc_g = freq_classifier_accuracy(posts, lambda p: GENDERS.index(p.gender), 2)
        acc_l = freq_classifier_accuracy(posts, lambda p: p.location, 5)
        assert abs(acc_g - 0.5) <= 0.05
        assert abs(acc_l - 0.2) <= 0.05

    def test_saturated_markers_fully_recoverable(self):
        cfg = SynthConfig(n_posts=1500, gender_marker_prob=1.0, location_marker_prob=0.0,
                          emotion_marker_prob=0.0, seed=9)
        posts = synthesize(cfg)
        acc = freq_classifier_accuracy(posts, lambda p: GENDERS.index(p.gender), 2)
        assert acc == 1.0

    def test_signal_monotone_in_marker_prob(self):
        accs = []
        for prob in (0.0, 0.5, 1.0):
            cfg = SynthConfig(n_posts=2500, gender_marker_prob=prob,
                              location_marker_prob=0.0, emotion_marker_prob=0.0,
                              gender_tilt=0.0, location_tilt=0.0,
                              attribute_conditioned_markers=False, seed=10)
            posts = synthesize(cfg)
            accs.append(freq_classifier_accuracy(posts, lambda p: GENDERS.index(p.gender), 2))
        assert accs[0] <= accs[1] + 0.02 and accs[1] <= accs[2] + 0.02
        assert accs[2] > accs[0]

    def test_unsatisfiable_targets_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(prevalence=(0.9, 0.2, 0.1, 0.1, 0.1)).validate()
        with pytest.raises(ConfigError):
            SynthConfig(gender_tilt=3.0).validate()

    def test_config_json_roundtrip(self, tmp_path):
        cfg = SynthConfig(n_posts=123, gender_tilt=0.25, seed=99)
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert SynthConfig.from_json(path) == cfg


class TestEncode:
    def make_vocab(self):
        return build_vocab([["w1", "w2", "w3"]], max_size=10)

    def test_emotion_bits_order(self):
        post = Post(text="w1 w2", emotions={"happiness", "fear"}, gender="female", location=0)
        [tp] = encode([post], self.make_vocab())
        np.testing.assert_array_equal(tp.emotion_bits, [1, 0, 0, 0, 1])

    def test_none_post_all_zero(self):
        post = Post(text="w1", emotions=set(), gender="male", location=1)
        [tp] = encode([post], self.make_vocab())
        np.testing.assert_array_equal(tp.emotion_bits, [0, 0, 0, 0, 0])
        assert tp.gender_bit == 1
        assert tp.location == 1

    def test_all_oov_retained(self):
        vocab = self.make_vocab()
        post = Post(text="zz yy", emotions=set(), gender="female", location=0)
        [tp] = encode([post], vocab)
        assert tp.ids == [vocab.oov_id, vocab.oov_id]

    def test_empty_after_tokenize_rejected(self):
        post = Post(text="   ", emotions=set(), gender="female", location=0)
        with pytest.raises(DataError, match="0"):
            encode([post], self.make_vocab())

    def test_tokenize_char_mode_on_cjk(self):
        assert tokenize("你好 吗", "char") == ["你", "好", "吗"]
