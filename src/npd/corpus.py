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
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .seeding import substream

EMOTIONS = ("happiness", "sadness", "anger", "surprise", "fear")
GENDERS = ("female", "male")

# emotion prevalence in the reference annotation statistics, kept as defaults
_DEFAULT_PREVALENCE = (2915 / 11157, 2454 / 11157, 153 / 11157, 601 / 11157, 359 / 11157)


def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int in Python but not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number_list(x) -> bool:
    """A JSON list, nested or not, of finite numbers: no bools, strings,
    nulls or ragged nesting."""
    if not isinstance(x, list):
        return False
    try:
        arr = np.array(x)
    except ValueError:  # ragged
        return False
    return arr.dtype.kind in "iuf" and bool(np.all(np.isfinite(arr)))


@dataclass
class Post:
    text: str
    emotions: set
    gender: str
    location: int

    def validate(self, m: int | None = None, where: str = "post"):
        if not isinstance(self.text, str) or not self.text:
            raise DataError(f"{where}: text must be a nonempty string, got {self.text!r}")
        bad = sorted(set(self.emotions) - set(EMOTIONS))
        if bad:
            raise DataError(f"{where}: unknown emotion name {bad[0]!r} "
                            f"(expected one of {', '.join(EMOTIONS)})")
        if self.gender not in GENDERS:
            raise DataError(f"{where}: gender must be 'female' or 'male', got {self.gender!r}")
        if not _is_int(self.location) or self.location < 0:
            raise DataError(f"{where}: location must be a nonnegative integer, "
                            f"got {self.location!r}")
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

    An optional first record {"m": <int>} declares the location-class count;
    otherwise m is inferred as max(location) + 1.
    """
    posts: list[Post] = []
    declared_m = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                if not _is_int(declared_m) or declared_m < 1:
                    raise DataError(f"{where}: header m must be a positive integer, "
                                    f"got {declared_m!r}")
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
            post.validate(where=where)
            posts.append(post)
    if declared_m is None:
        m = max((p.location for p in posts), default=0) + 1 if posts else 0
    else:
        m = declared_m
        for i, p in enumerate(posts):
            if p.location >= m:
                raise DataError(f"{path}: post {i} has location {p.location} >= declared m={m}")
    return posts, m


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


def split(posts: list[Post], train_frac: float = 0.7, seed: int = 0):
    """Seeded random partition into (train, dev, test).

    train_frac of the posts form the training pool, the remainder is the
    test set, and 10% of the pool is carved off as the dev set used for
    early stopping.
    """
    n = len(posts)
    if n < 10:
        raise ConfigError(f"need at least 10 posts to split, got {n}")
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
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
    An explicit `correlation` table (emotions x genders x locations of
    multipliers) overrides the tilts.

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
    correlation: list | None = None
    prevalence: tuple = _DEFAULT_PREVALENCE
    min_len: int = 8
    max_len: int = 25
    zipf_exponent: float = 1.1
    seed: int = 0

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
        """Read a JSON object of SynthConfig fields, each optional.

        Malformed JSON, a top level that is not an object, an unknown field
        and a value of the wrong JSON type raise DataError naming the path
        and the field; a finite number is required wherever a float is.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: malformed JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise DataError(f"{path}: expected a JSON object of SynthConfig fields, "
                            f"got {type(raw).__name__}")
        fields = cls.__dataclass_fields__
        for name, value in raw.items():
            if name not in fields:
                raise DataError(f"{path}: unknown SynthConfig field {name!r}")
            default = fields[name].default
            if isinstance(default, bool):
                ok, want = isinstance(value, bool), "true or false"
            elif isinstance(default, int):
                ok, want = _is_int(value), "an integer"
            elif isinstance(default, float):
                ok, want = _is_number_list([value]), "a finite number"
            else:  # prevalence, and correlation, which may also be null
                ok = _is_number_list(value) or (default is None and value is None)
                want = "a list of finite numbers"
            if not ok:
                raise DataError(f"{path}: field {name!r} must be {want}, got {value!r}")
        if "prevalence" in raw:
            raw["prevalence"] = tuple(raw["prevalence"])
        return cls(**raw)

    def to_json(self, path: str) -> None:
        rec = asdict(self)
        rec["prevalence"] = list(rec["prevalence"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=2)
            fh.write("\n")

    def correlation_table(self) -> np.ndarray:
        """[5 x 2 x m] conditional emotion probabilities given (gender, location)."""
        m = self.m_locations
        if self.correlation is not None:
            mult = np.asarray(self.correlation, dtype=np.float64)
            if mult.shape != (len(EMOTIONS), 2, m):
                raise ConfigError(f"correlation table must have shape (5, 2, {m})")
        else:
            mult = np.ones((len(EMOTIONS), 2, m))
            for j in range(len(EMOTIONS)):
                pref_g = j % 2
                pref_l = j % m
                sg = np.where(np.arange(2) == pref_g, 1.0, -1.0)
                sl = np.where(np.arange(m) == pref_l, 1.0, -1.0 / (m - 1))
                mult[j] = 1.0 + self.gender_tilt * sg[:, None] + self.location_tilt * sl[None, :]
        table = np.asarray(self.prevalence)[:, None, None] * mult
        return table

    def validate(self):
        if self.n_posts < 1:
            raise ConfigError("n_posts must be >= 1")
        if self.m_locations < 2:
            raise ConfigError("m_locations must be >= 2")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("need 1 <= min_len <= max_len")
        probs = (self.gender_marker_prob, self.location_marker_prob, self.emotion_marker_prob)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ConfigError("marker probabilities must lie in [0, 1]")
        if sum(probs) > 1.0:
            raise ConfigError("marker probabilities must sum to at most 1")
        if len(self.prevalence) != len(EMOTIONS):
            raise ConfigError(f"prevalence needs {len(EMOTIONS)} entries")
        if any(not 0.0 <= t <= 1.0 for t in self.prevalence):
            raise ConfigError("prevalence targets must lie in [0, 1]")
        if sum(self.prevalence) > 1.0:
            raise ConfigError("prevalence targets must sum to at most 1")
        table = self.correlation_table()
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ConfigError("prevalence targets unsatisfiable: conditional "
                              "probabilities leave [0, 1] under the correlation table")
        mean_mult = table.mean(axis=(1, 2))
        targets = np.asarray(self.prevalence)
        off = np.abs(mean_mult - targets) > 1e-9 + 1e-6 * targets
        if np.any(off):
            raise ConfigError("prevalence targets unsatisfiable: correlation table "
                              "multipliers do not average to 1 over uniform attributes")


def _emo_cell_token(j: int, cell: str, idx: int) -> str:
    return f"emo_{EMOTIONS[j][:3]}_{cell}_{idx:02d}"


def synthesize(cfg: SynthConfig) -> list[Post]:
    """Generate a corpus per the config; deterministic given cfg.seed."""
    cfg.validate()
    rng = substream(cfg.seed, "synth")
    m = cfg.m_locations
    table = cfg.correlation_table()

    zipf_w = np.arange(1, cfg.neutral_tokens + 1, dtype=np.float64) ** (-cfg.zipf_exponent)
    zipf_cdf = np.cumsum(zipf_w / zipf_w.sum())

    p_g, p_l, p_e = cfg.gender_marker_prob, cfg.location_marker_prob, cfg.emotion_marker_prob
    n_mark = cfg.markers_per_attribute_value
    n_cell = cfg.emotion_markers_per_cell
    cells = ["f", "m"] + [f"loc{k}" for k in range(m)]

    posts = []
    for _ in range(cfg.n_posts):
        g = int(rng.integers(2))
        loc = int(rng.integers(m))
        present = [j for j in range(len(EMOTIONS)) if rng.random() < table[j, g, loc]]
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        tokens = []
        for _ in range(length):
            r = rng.random()
            if r < p_g:
                tokens.append(f"gmark_{'fm'[g]}_{int(rng.integers(n_mark)):02d}")
            elif r < p_g + p_l:
                tokens.append(f"lmark_{loc}_{int(rng.integers(n_mark)):02d}")
            elif r < p_g + p_l + p_e and present:
                j = present[int(rng.integers(len(present)))]
                if cfg.attribute_conditioned_markers:
                    cell = "fm"[g] if rng.random() < 0.5 else f"loc{loc}"
                else:
                    cell = cells[int(rng.integers(len(cells)))]
                tokens.append(_emo_cell_token(j, cell, int(rng.integers(n_cell))))
            else:
                nid = int(np.searchsorted(zipf_cdf, rng.random()))
                tokens.append(f"neutral_{nid:04d}")
        posts.append(Post(text=" ".join(tokens),
                          emotions={EMOTIONS[j] for j in present},
                          gender=GENDERS[g], location=loc))
    return posts


def encode(posts: list[Post], vocab, mode: str = "whitespace") -> list[TokenizedPost]:
    """Map posts to token ids and label bits; rejects posts that tokenize to nothing."""
    from .text import tokenize

    out = []
    for i, p in enumerate(posts):
        ids = vocab.encode(tokenize(p.text, mode))
        if not ids:
            raise DataError(f"post {i} tokenizes to an empty sequence")
        bits = np.array([1 if e in p.emotions else 0 for e in EMOTIONS], dtype=np.int64)
        out.append(TokenizedPost(ids=ids, emotion_bits=bits,
                                 gender_bit=GENDERS.index(p.gender), location=p.location))
    return out
