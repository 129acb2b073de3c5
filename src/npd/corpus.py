"""Corpus schema, JSONL IO, splitting, and a planted-correlation generator.

Posts carry a multi-label emotion subset plus the author's gender and
location. The synthetic generator plants controllable structure mirroring
the homophily premise the model targets: author attributes tilt emotion
prevalence, attribute-marker tokens reveal gender/location, and
emotion-marker tokens are fragmented across (emotion, attribute-value)
cells, so the same emotion surfaces through different dialect-like tokens
for different author groups. All knobs can be zeroed to produce
null-signal control corpora.
"""

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (COUNT, FINITE, FLAG, FRACTION, LOCATIONS, NONNEGATIVE_INT, PROBABILITY,
                     ConfigError, DataError, at_least, check, check_fields, one_of)
from .seeding import RANDOM_UNIT, SEED, RawSampler, substream
from .text import TOKENIZER_MODES, read_lines, tokenize

EMOTIONS = ("happiness", "sadness", "anger", "surprise", "fear")
GENDERS = ("female", "male")
_EMOTION, _GENDER = one_of(EMOTIONS), one_of(GENDERS)

TRAIN_FRAC = 0.7  # split's default share of the posts in the training pool

# emotion prevalence in the reference annotation statistics, kept as defaults
_DEFAULT_PREVALENCE = (2915 / 11157, 2454 / 11157, 153 / 11157, 601 / 11157, 359 / 11157)


@dataclass
class Post:
    text: str
    emotions: set
    gender: str
    location: int

    def validate(self, m: int | None = None, where: str = "post"):
        if not isinstance(self.text, str) or not self.text.strip():  # no token in either mode
            raise DataError(f"{where}: text must have a non-space character, got {self.text!r}")
        for name in sorted(self.emotions):
            check(_EMOTION, f"{where}: emotion name", name, DataError)
        check(_GENDER, f"{where}: gender", self.gender, DataError)
        check(NONNEGATIVE_INT, f"{where}: location", self.location, DataError)
        if m is not None and self.location >= m:
            raise DataError(f"{where}: location {self.location} out of range for m={m}")


@dataclass
class TokenizedPost:
    ids: list[int]
    emotion_bits: np.ndarray  # 5 ints in EMOTIONS order
    gender_bit: int           # 0 = female, 1 = male
    location: int


def load_with_meta(path: str) -> tuple[list[Post], int]:
    """Load a JSONL corpus; returns (posts, m).

    An optional first record {"m": <int>} bounds every location; otherwise
    m is max(location) + 1. Each bad line is a DataError naming path:line.
    """
    posts: list[Post] = []
    declared_m = None
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: malformed JSON ({exc.msg})") from exc
        if lineno == 1 and isinstance(rec, dict) and "text" not in rec and "m" in rec:
            declared_m = rec["m"]
            check(COUNT, f"{where}: header m", declared_m, DataError)
            continue
        if not isinstance(rec, dict):
            raise DataError(f"{where}: expected a JSON object")
        missing = {"text", "emotions", "gender", "location"} - rec.keys()
        if missing:
            raise DataError(f"{where}: missing key {sorted(missing)[0]!r}")
        emotions = rec["emotions"]
        if not isinstance(emotions, list) or not all(isinstance(e, str) for e in emotions):
            raise DataError(f"{where}: emotions must be a list of emotion names, "
                            f"got {emotions!r}")
        post = Post(text=rec["text"], emotions=set(emotions),
                    gender=rec["gender"], location=rec["location"])
        post.validate(m=declared_m, where=where)
        posts.append(post)
    if declared_m is None:
        return posts, max((p.location for p in posts), default=-1) + 1
    return posts, declared_m


def save(path: str, posts: list[Post], m: int | None = None) -> None:
    """Write one JSON object per line; emotions in canonical order for stable bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        if m is not None:
            fh.write(json.dumps({"m": m}) + "\n")
        for p in posts:
            rec = {
                "text": p.text,
                "emotions": [e for e in EMOTIONS if e in p.emotions],
                "gender": p.gender,
                "location": p.location,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split(posts: list[Post], train_frac: float = TRAIN_FRAC, seed: int = 0):
    """Seeded random partition into (train, dev, test).

    train_frac of the posts form the training pool, the remainder is the
    test set, and 10% of the pool is carved off as the dev set used for
    early stopping.
    """
    n = len(posts)
    check(at_least(10), "the number of posts to split", n)
    check(FRACTION, "train_frac", train_frac)
    rng = substream(seed, "split")
    order = rng.permutation(n)
    n_pool = math.floor(train_frac * n)
    n_dev = max(1, math.floor(0.1 * n_pool)) if n_pool >= 2 else 0
    pool = [posts[i] for i in order[:n_pool]]
    test = [posts[i] for i in order[n_pool:]]
    return pool[n_dev:], pool[:n_dev], test


@dataclass
class SynthConfig:
    """Knobs of the planted-correlation generator.

    gender_tilt / location_tilt shape the attribute-to-emotion correlation
    table: each emotion's conditional probability is its prevalence target
    times (1 + gender_tilt*s_g + location_tilt*s_l), where s_g is +1 for
    the emotion's preferred gender and -1 otherwise, and s_l is +1 for the
    preferred location and -1/(m-1) otherwise, so marginals stay on target.

    When attribute_conditioned_markers is set, an emotion marker token is
    drawn from the (emotion, author-attribute-value) cell, so the token
    that expresses an emotion differs across author groups; when unset the
    cell is drawn uniformly, which erases all attribute signal from the
    text while keeping emotions recoverable.
    """

    n_posts: int = 8000
    m_locations: int = 5
    neutral_tokens: int = 1500
    markers_per_attribute_value: int = 30
    emotion_markers_per_cell: int = 20
    gender_marker_prob: float = 0.08
    location_marker_prob: float = 0.08
    emotion_marker_prob: float = 0.30
    gender_tilt: float = 0.5
    location_tilt: float = 0.5
    attribute_conditioned_markers: bool = True
    prevalence: tuple = _DEFAULT_PREVALENCE
    min_len: int = 8
    max_len: int = 25
    zipf_exponent: float = 1.1
    seed: int = 0

    RULES = {
        "n_posts": COUNT, "m_locations": LOCATIONS, "neutral_tokens": COUNT,
        "markers_per_attribute_value": COUNT, "emotion_markers_per_cell": COUNT,
        "gender_marker_prob": PROBABILITY, "location_marker_prob": PROBABILITY,
        "emotion_marker_prob": PROBABILITY, "gender_tilt": FINITE, "location_tilt": FINITE,
        "attribute_conditioned_markers": FLAG,
        "prevalence": ((f"be {len(EMOTIONS)} numbers in [0, 1]",
                        lambda v: isinstance(v, (list, tuple)) and len(v) == len(EMOTIONS)
                        and all(ok(t) for t in v for _, ok in PROBABILITY)),),
        "min_len": COUNT, "max_len": COUNT, "zipf_exponent": FINITE, "seed": SEED,
    }

    @classmethod
    def null_signal(cls, **overrides) -> "SynthConfig":
        """A control corpus whose text carries no attribute information."""
        base = dict(gender_marker_prob=0.0, location_marker_prob=0.0,
                    gender_tilt=0.0, location_tilt=0.0,
                    attribute_conditioned_markers=False)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_json(cls, path: str) -> "SynthConfig":
        """Read a JSON object of SynthConfig fields, each optional, and validate it.

        Malformed JSON, a top level that is not an object, an unknown field
        and a value that validate() rejects raise DataError naming the path.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: malformed JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise DataError(f"{path}: expected a JSON object of SynthConfig fields, "
                            f"got {type(raw).__name__}")
        for name in raw:
            if name not in cls.RULES:
                raise DataError(f"{path}: unknown SynthConfig field {name!r}")
        cfg = cls(**raw)
        try:
            cfg.validate()
        except ConfigError as exc:
            raise DataError(f"{path}: {exc}") from exc
        cfg.prevalence = tuple(cfg.prevalence)
        return cfg

    def correlation_table(self) -> np.ndarray:
        """[5 x 2 x m] conditional emotion probabilities given (gender, location)."""
        m = self.m_locations
        mult = np.ones((len(EMOTIONS), 2, m))
        for j in range(len(EMOTIONS)):
            pref_g = j % 2
            pref_l = j % m
            sg = np.where(np.arange(2) == pref_g, 1.0, -1.0)
            sl = np.where(np.arange(m) == pref_l, 1.0, -1.0 / (m - 1))
            mult[j] = 1.0 + self.gender_tilt * sg[:, None] + self.location_tilt * sl[None, :]
        return np.asarray(self.prevalence)[:, None, None] * mult

    def validate(self):
        check_fields(self)
        if self.min_len > self.max_len:
            raise ConfigError(f"min_len must be <= max_len {self.max_len}, got {self.min_len}")
        # RawSampler.integers(n), which synthesize draws from, serves n < 2**32
        ranges = {"markers_per_attribute_value": self.markers_per_attribute_value,
                  "emotion_markers_per_cell": self.emotion_markers_per_cell,
                  "2 + m_locations": 2 + self.m_locations,
                  "max_len - min_len + 1": self.max_len - self.min_len + 1}
        for name, n in ranges.items():
            if n >= 2**32:
                raise ConfigError(f"{name} must be below 2**32, got {n}")
        if self.gender_marker_prob + self.location_marker_prob + self.emotion_marker_prob > 1.0:
            raise ConfigError("marker probabilities must sum to at most 1")
        if sum(self.prevalence) > 1.0:
            raise ConfigError("prevalence targets must sum to at most 1")
        table = self.correlation_table()
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ConfigError("prevalence targets unsatisfiable: conditional "
                              "probabilities leave [0, 1] under the correlation table")


def synthesize(cfg: SynthConfig) -> list[Post]:
    """Generate a corpus per the config; deterministic given cfg.seed.

    Per post, the draws from the "synth" substream come in this order:
    gender `integers(2)`, location `integers(m)`, one `random()` per
    emotion in EMOTIONS order (present when below its correlation table
    entry), the length `min_len + integers(max_len - min_len + 1)`, then
    per token a `random()` r that picks the kind:
    - r < gender_marker_prob: `integers(n_mark)`, the gender marker;
    - below that plus location_marker_prob: `integers(n_mark)`, the
      location marker;
    - below that plus emotion_marker_prob, if an emotion is present:
      `integers(len(present))` for the emotion, then the cell, either a
      `random()` < 0.5 choosing gender over location (attribute-conditioned)
      or `integers(2 + m)` over all cells, then `integers(n_cell)`;
    - otherwise a `random()` placed in the Zipf CDF by `bisect_left`.

    The draws are computed by a RawSampler from the substream's raw PCG64
    output, exactly as the substream Generator's `random()` and
    `integers(n)` calls listed would give them; `integers(1)`, a
    one-value range, draws nothing. The per-token kind draw and the
    neutral draw inline RawSampler.random.

    Every token name is built once per call. There are N + 1 neutral
    names for N neutral tokens: the CDF's last entry is rounded and can
    lie below 1, so a draw above it lands on index N.
    """
    cfg.validate()
    draws = RawSampler(cfg.seed, "synth")
    raw, random, integers = draws.raw, draws.random, draws.integers
    m = cfg.m_locations
    table = cfg.correlation_table().tolist()

    zipf_w = np.arange(1, cfg.neutral_tokens + 1, dtype=np.float64) ** (-cfg.zipf_exponent)
    zipf_cdf = np.cumsum(zipf_w / zipf_w.sum()).tolist()
    neutral = [f"neutral_{nid:04d}" for nid in range(cfg.neutral_tokens + 1)]

    p_g, p_l, p_e = cfg.gender_marker_prob, cfg.location_marker_prob, cfg.emotion_marker_prob
    n_mark = cfg.markers_per_attribute_value
    n_cell = cfg.emotion_markers_per_cell
    n_len = cfg.max_len - cfg.min_len + 1
    cells = ["f", "m"] + [f"loc{k}" for k in range(m)]
    gmark = [[f"gmark_{g}_{i:02d}" for i in range(n_mark)] for g in "fm"]
    lmark = [[f"lmark_{loc}_{i:02d}" for i in range(n_mark)] for loc in range(m)]
    emo = [[[f"emo_{name[:3]}_{cell}_{i:02d}" for i in range(n_cell)] for cell in cells]
           for name in EMOTIONS]

    posts = []
    for _ in range(cfg.n_posts):
        g = integers(2)
        loc = integers(m)
        present = [j for j in range(len(EMOTIONS)) if random() < table[j][g][loc]]
        length = cfg.min_len + integers(n_len)
        tokens = []
        for _ in range(length):
            r = (raw() >> 11) * RANDOM_UNIT
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
                tokens.append(neutral[bisect_left(zipf_cdf, (raw() >> 11) * RANDOM_UNIT)])
        posts.append(Post(text=" ".join(tokens),
                          emotions={EMOTIONS[j] for j in present},
                          gender=GENDERS[g], location=loc))
    return posts


def encode(posts: list[Post], vocab, mode: str = TOKENIZER_MODES[0]) -> list[TokenizedPost]:
    """Map posts to token ids and label bits; rejects posts that tokenize to nothing."""
    out = []
    for i, p in enumerate(posts):
        ids = vocab.encode(tokenize(p.text, mode))
        if not ids:
            raise DataError(f"post {i} tokenizes to an empty sequence")
        bits = np.array([1 if e in p.emotions else 0 for e in EMOTIONS], dtype=np.int64)
        out.append(TokenizedPost(ids=ids, emotion_bits=bits,
                                 gender_bit=GENDERS.index(p.gender), location=p.location))
    return out
