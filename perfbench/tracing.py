"""Spans and counters wrapped around calls into npd's modules, from outside.

A traced run replaces a fixed list of npd functions and methods with
wrappers that time each call as a span and update counters, and restores the
originals afterwards. Nothing here is active in an untraced run. A span's
self time is its duration minus the time of the spans nested inside it, so
the self times of all spans plus the time outside every span add up to the
traced wall time. Work done by the wrappers themselves (graph walks, counter
updates) runs in its own ``trace.hooks`` span and is kept out of the layers'
self times.

If a wrapped name no longer exists, the layer is recorded as missing and its
metrics read 0; the traced run goes on.
"""

import functools
import gc
import statistics
import time
from collections import Counter
from contextlib import contextmanager

HOOKS = "trace.hooks"

# Every span a traced run can record; each gets a share of the traced wall time.
SPANS = (
    "corpus.synthesize", "text.build_vocab", "corpus.encode",
    "text.load_embeddings", "model.load_checkpoint",
    "training.train", "model.forward", "model.embed_gather", "model.lstm",
    "model.attention", "model.emotion_heads", "model.discriminators",
    "training.loss", "autodiff.backward", "training.clip", "training.adagrad",
    "evaluation.dev_eval", "evaluation.evaluate", "cli.predict",
    "text.skipgram_pairs", "text.skipgram_update",
)

COUNTED_OPS = ("matmul", "mul", "add", "cols", "sigmoid", "tanh")


def _graph(roots):
    """Every node reachable from roots through ``parents``, each once."""
    seen, stack, out = set(), [r for r in roots if r is not None], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(getattr(node, "parents", ()))
    return out


class Tracer:
    """Span timer and counters for one traced run."""

    def __init__(self):
        self._stack = []  # open spans as [name, start, seconds spent in child spans]
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.step_ms = []
        self.missing = []
        self.hook_errors = []
        self._undo = []
        self._step_start = None
        self._gc_start = None
        self._paused = 0

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            dur = time.perf_counter() - frame[1]
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += dur

    @contextmanager
    def paused(self):
        """Calls made inside run unwrapped: no span, no counter. Their time
        falls to ``other``."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def active(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _hook(self, fn, *args):
        with self.span(HOOKS):
            try:
                fn(*args)
            except Exception as exc:  # a changed npd signature must not end the run
                self.hook_errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, span, before=None, after=None):
        """Wrap owner.attr: time it as span (a name, a function of the call's
        arguments, or None for no span) and run the hooks around it."""
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args, kwargs)
            name = span(args, kwargs) if callable(span) else span
            if name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                tracer._hook(after, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.counts["gc.gen2"] += 1

    def install(self):
        """Wrap the npd layers and start counting garbage collections."""
        from npd import autodiff, cli, corpus, evaluation, model, text, training

        self.patch(corpus, "synthesize", "corpus.synthesize")
        self.patch(text, "build_vocab", "text.build_vocab")
        self.patch(corpus, "encode", "corpus.encode")
        self.patch(text, "load_embeddings", "text.load_embeddings")
        self.patch(model, "load_checkpoint", "model.load_checkpoint")
        self.patch(cli, "load_checkpoint", "model.load_checkpoint")  # cli imports the name
        self.patch(training, "train", "training.train")
        self.patch(model.NpdModel, "zero_grads", None, before=self._on_step_start)
        self.patch(model.NpdModel, "forward", "model.forward", after=self._on_forward)
        self.patch(model.NpdModel, "_embed_all_steps", "model.embed_gather")
        self.patch(model.NpdModel, "_encode", "model.lstm")
        self.patch(model.NpdModel, "_attend", "model.attention")
        self.patch(model.NpdModel, "_emotion_heads", "model.emotion_heads")
        self.patch(model.NpdModel, "_discriminate", "model.discriminators")
        self.patch(training, "batch_losses", "training.loss")
        self.patch(autodiff, "backward", "autodiff.backward", before=self._on_backward)
        self.patch(training, "clip_global_norm", "training.clip", after=self._on_clip)
        self.patch(training.AdaGrad, "step", "training.adagrad", after=self._on_step_end)
        self.patch(evaluation, "evaluate", self._evaluate_span, before=self._on_evaluate)
        self.patch(cli, "cmd_predict", "cli.predict")
        self.patch(text, "_epoch_pairs", "text.skipgram_pairs", after=self._on_pairs)
        self.patch(text, "train_skipgram", "text.skipgram_update")
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hooks ------------------------------------------------------------

    def _evaluate_span(self, args, kwargs):
        return "evaluation.dev_eval" if self.active("training.train") else "evaluation.evaluate"

    def _on_evaluate(self, args, kwargs):
        if not self.active("training.train"):
            posts = args[1] if len(args) > 1 else kwargs["posts"]
            self.counts["evaluate.posts"] += len(posts)

    def _on_forward(self, result, args, kwargs):
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        train_mode = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
        self.counts["forward.calls"] += 1
        self.counts["forward.posts"] += len(batch)
        if train_mode:
            self.counts["forward.posts.train"] += len(batch)
        else:
            roots = [*result.emotion_probs, result.gender_prob, result.location_probs,
                     result.head_input, *result.attention.values()]
            self.counts["forward.eval_calls"] += 1
            self.counts["forward.eval_closures"] += sum(
                getattr(node, "_backward", None) is not None for node in _graph(roots))
        if self.active("cli.predict"):
            self.counts["predict.forward_calls"] += 1
            self.counts["predict.posts"] += len(batch)
        mask = result.mask
        self.counts["mask.cells"] += mask.size
        self.counts["mask.padding"] += mask.size - float(mask.sum())

    def _on_backward(self, args, kwargs):
        nodes = _graph([args[0] if args else kwargs["loss"]])
        self.counts["backward.calls"] += 1
        self.counts["graph.nodes"] += len(nodes)
        self.counts["graph.bytes"] += sum(node.value.nbytes for node in nodes)
        ops = Counter(node.op for node in nodes)
        for op in COUNTED_OPS:
            self.counts[f"graph.nodes.{op}"] += ops[op]

    def _on_clip(self, result, args, kwargs):
        max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
        self.counts["clip.calls"] += 1
        self.counts["clip.fired"] += result > max_norm

    def _on_step_start(self, args, kwargs):
        if self.active("training.train"):
            self._step_start = (time.perf_counter(), self.total_s[HOOKS])

    def _on_step_end(self, result, args, kwargs):
        if self._step_start is not None:
            start, hooks_before = self._step_start
            # the wrappers' own work during the step is not the step's time
            elapsed = time.perf_counter() - start - (self.total_s[HOOKS] - hooks_before)
            self.step_ms.append(1e3 * elapsed)
            self._step_start = None

    def _on_pairs(self, result, args, kwargs):
        self.counts["skipgram.epochs"] += 1
        self.counts["skipgram.pairs"] += len(result[0])

    # -- report -----------------------------------------------------------

    def layer_metrics(self, wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics as name -> (value, unit) for a traced section of wall_s."""
        c, self_ms = self.counts, {k: 1e3 * v for k, v in self.self_s.items()}

        def per(num, den):
            return num / den if den else 0.0

        posts = c["forward.posts"]
        trained = c["forward.posts.train"]
        steps = c["backward.calls"]
        pairs_epochs = c["skipgram.epochs"]
        out = {
            "model.forward.self_ms_per_post": (per(self_ms.get("model.forward", 0.0), posts), "ms"),
            "model.embed_gather.ms_per_post": (per(self_ms.get("model.embed_gather", 0.0), posts), "ms"),
            "model.lstm.ms_per_post": (per(self_ms.get("model.lstm", 0.0), posts), "ms"),
            "model.attention.ms_per_post": (per(self_ms.get("model.attention", 0.0), posts), "ms"),
            "model.emotion_heads.ms_per_post": (per(self_ms.get("model.emotion_heads", 0.0), posts), "ms"),
            "model.discriminators.ms_per_post": (per(self_ms.get("model.discriminators", 0.0), posts), "ms"),
            "model.padding_frac": (per(c["mask.padding"], c["mask.cells"]), "share"),
            "training.train.self_ms_per_post": (per(self_ms.get("training.train", 0.0), trained), "ms"),
            "training.loss.ms_per_post": (per(self_ms.get("training.loss", 0.0), trained), "ms"),
            "autodiff.backward.ms_per_post": (per(self_ms.get("autodiff.backward", 0.0), trained), "ms"),
            "training.clip.ms_per_post": (per(self_ms.get("training.clip", 0.0), trained), "ms"),
            "training.adagrad.ms_per_post": (per(self_ms.get("training.adagrad", 0.0), trained), "ms"),
            "training.clip_fired_frac": (per(c["clip.fired"], c["clip.calls"]), "share"),
            "training.step_ms.p50": (_quantile(self.step_ms, 0.5), "ms"),
            "training.step_ms.p90": (_quantile(self.step_ms, 0.9), "ms"),
            "evaluation.dev_eval.ms_per_epoch": (
                per(1e3 * self.total_s["evaluation.dev_eval"], self.calls["evaluation.dev_eval"]), "ms"),
            "evaluation.evaluate.ms_per_post": (
                per(1e3 * self.total_s["evaluation.evaluate"], c["evaluate.posts"]), "ms"),
            "autodiff.nodes_per_step": (per(c["graph.nodes"], steps), "count"),
            "autodiff.graph_mb_per_step": (per(c["graph.bytes"], steps) / 2**20, "MiB"),
            "autodiff.closures_per_forward": (per(c["forward.eval_closures"], c["forward.eval_calls"]), "count"),
            "model.forward_calls_per_post": (per(c["predict.forward_calls"], c["predict.posts"]), "count"),
            "cli.predict.self_ms_per_post": (per(self_ms.get("cli.predict", 0.0), c["predict.posts"]), "ms"),
            "text.load_embeddings.ms": (
                per(1e3 * self.total_s["text.load_embeddings"], self.calls["text.load_embeddings"]), "ms"),
            "model.load_checkpoint.ms": (
                per(1e3 * self.total_s["model.load_checkpoint"], self.calls["model.load_checkpoint"]), "ms"),
            "corpus.synthesize.ms": (1e3 * self.total_s["corpus.synthesize"], "ms"),
            "text.build_vocab.ms": (1e3 * self.total_s["text.build_vocab"], "ms"),
            "corpus.encode.ms": (1e3 * self.total_s["corpus.encode"], "ms"),
            "text.skipgram_pairs.ms_per_epoch": (per(self_ms.get("text.skipgram_pairs", 0.0), pairs_epochs), "ms"),
            "text.skipgram_update.ms_per_epoch": (
                per(self_ms.get("text.skipgram_update", 0.0), pairs_epochs), "ms"),
            "text.skipgram.pairs_per_epoch": (per(c["skipgram.pairs"], pairs_epochs), "count"),
            "runtime.gc_collections.gen2": (float(c["gc.gen2"]), "count"),
            "runtime.gc_pause_ms": (1e3 * c["gc.pause_s"], "ms"),
        }
        for op in COUNTED_OPS:
            out[f"autodiff.nodes_per_step.{op}"] = (per(c[f"graph.nodes.{op}"], steps), "count")
        wall_ms = 1e3 * wall_s
        spans_ms = sum(self_ms.values())  # includes the hooks
        for name in (*SPANS, HOOKS):
            out[f"share.{name}"] = (per(self_ms.get(name, 0.0), wall_ms), "share")
        out["share.other"] = (per(wall_ms - spans_ms, wall_ms), "share")
        out["trace.wall_ms"] = (wall_ms, "ms")
        out["trace.other_ms"] = (wall_ms - spans_ms, "ms")
        out["trace.overhead_ms"] = (1e3 * overhead_s, "ms")
        out["trace.missing_layers"] = (float(len(self.missing)), "count")
        return out


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def report_problems(tracer):
    for name in tracer.missing:
        print(f"missing layer: {name} (its metrics read 0)")
    for err in tracer.hook_errors[:10]:
        print(f"trace hook error: {err}")
