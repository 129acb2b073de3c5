"""Independent straight-line reimplementation of the model math in plain numpy.

Deliberately shares no code with the graph engine: loops over one post at a
time, uses explicit vector algebra, and returns plain floats. Serves two
oracle roles in the test suite: reference forward values, and the scalar
functions driven by central finite differences in gradient checks. Also
holds the straight loop that skip-gram's vectorized pair generation must
match exactly.
"""

import math

import numpy as np

K_EMOTIONS = 5


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def softmax_vec(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def lstm_states(params, xs, hidden_dim):
    """Hidden-state sequence for one post; xs is [n x e]."""
    h = params["f.lstm.h0"].copy()
    c = params["f.lstm.c0"].copy()
    hd = hidden_dim
    states = []
    for x in xs:
        pre = x @ params["f.lstm.wx"] + h @ params["f.lstm.wh"] + params["f.lstm.b"]
        gi = sigmoid(pre[:hd])
        gf = sigmoid(pre[hd : 2 * hd])
        go = sigmoid(pre[2 * hd : 3 * hd])
        gc = np.tanh(pre[3 * hd :])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        states.append(h)
    return states


def attention_pool(params, states, which):
    w = params[f"f.att_{which}.w"]
    b = params[f"f.att_{which}.b"]
    u = params[f"f.att_{which}.u"]
    scores = np.array([np.tanh(h @ w + b) @ u for h in states])
    weights = softmax_vec(scores)
    pooled = sum(weights[i] * states[i] for i in range(len(states)))
    return weights, pooled


def forward_post(params, embedding, ids, manifest):
    """Forward one post; returns emotion probs, gender prob, location probs,
    attention weights, and the head input vector."""
    table = params["f.embed"] if manifest["finetune_embeddings"] else embedding
    xs = [table[i] for i in ids]
    states = lstm_states(params, xs, manifest["hidden_dim"])
    variant = manifest["variant"]

    use_gatt = variant in ("LSTM_ATTENTION", "NPD_GENDER", "NPD")
    use_latt = variant in ("LSTM_ATTENTION", "NPD_LOCATION", "NPD")
    use_gdisc = variant in ("LSTM_ATTRIBUTES", "LSTM_ADVERSARIAL", "NPD_GENDER", "NPD")
    use_ldisc = variant in ("LSTM_ATTRIBUTES", "LSTM_ADVERSARIAL", "NPD_LOCATION", "NPD")

    att = {}
    v_g = v_l = None
    if use_gatt:
        att["gender"], v_g = attention_pool(params, states, "g")
    if use_latt:
        att["location"], v_l = attention_pool(params, states, "l")

    if v_g is not None and v_l is not None:
        head_in = np.concatenate([v_g, v_l])
    elif v_g is not None:
        head_in = v_g
    elif v_l is not None:
        head_in = v_l
    else:
        head_in = states[-1]

    emotion_probs = []
    for j in range(K_EMOTIONS):
        hid = sigmoid(head_in @ params[f"y.head{j}.w"] + params[f"y.head{j}.b"])
        emotion_probs.append(softmax_vec(hid @ params[f"y.head{j}.wo"] + params[f"y.head{j}.bo"]))

    gender_p = None
    if use_gdisc:
        gin = v_g if v_g is not None else states[-1]
        gender_p = float(sigmoid(gin @ params["g.w"] + params["g.b"])[0])
    location_p = None
    if use_ldisc:
        lin = v_l if v_l is not None else states[-1]
        location_p = softmax_vec(lin @ params["l.w"] + params["l.b"])

    return {"emotion_probs": emotion_probs, "gender_prob": gender_p,
            "location_probs": location_p, "attention": att, "head_input": head_in}


def losses(params, embedding, batch, manifest, l2_lambda):
    """(J_y, J_gend, J_loc) means over a batch of (ids, bits, gender, location)."""
    j_y = j_g = j_l = 0.0
    has_g = has_l = False
    for ids, bits, gender, location in batch:
        out = forward_post(params, embedding, ids, manifest)
        for j in range(K_EMOTIONS):
            p = max(out["emotion_probs"][j][bits[j]], 1e-300)
            j_y -= math.log(p)
        if out["gender_prob"] is not None:
            has_g = True
            p = min(max(out["gender_prob"], 1e-12), 1.0 - 1e-12)
            j_g -= gender * math.log(p) + (1 - gender) * math.log(1.0 - p)
        if out["location_probs"] is not None:
            has_l = True
            j_l -= math.log(max(out["location_probs"][location], 1e-12))
    n = len(batch)
    j_y /= n
    if l2_lambda > 0.0:
        sq = sum(float(np.sum(v * v)) for k, v in params.items() if k.startswith("y."))
        j_y += 0.5 * l2_lambda * sq
    return j_y, (j_g / n if has_g else None), (j_l / n if has_l else None)


def partition_objective(prefix, manifest, lambdas):
    """Coefficients (c_y, c_g, c_l) of the scalar whose true gradient equals
    the engine's gradient for parameters in the given partition.

    The reversal layer makes the encoder ascend the discriminator losses, so
    the value function matching its gradient carries minus signs on the
    attribute terms for the "f" partition (except for the plain multi-task
    variant, which has no reversal).
    """
    l1, l2, l3 = lambdas
    reversed_enc = manifest["variant"] in ("LSTM_ADVERSARIAL", "NPD_GENDER",
                                           "NPD_LOCATION", "NPD")
    lam = manifest["lambda_rev"]
    if prefix == "f":
        if reversed_enc:
            return l1, -l2 * lam, -l3 * lam
        return l1, l2, l3
    if prefix == "y":
        return l1, 0.0, 0.0
    if prefix == "g":
        return 0.0, l2, 0.0
    if prefix == "l":
        return 0.0, 0.0, l3
    raise ValueError(prefix)


def objective_value(params, embedding, batch, manifest, lambdas, l2_lambda, coeffs):
    c_y, c_g, c_l = coeffs
    j_y, j_g, j_l = losses(params, embedding, batch, manifest, l2_lambda)
    total = c_y * j_y
    if j_g is not None:
        total += c_g * j_g
    if j_l is not None:
        total += c_l * j_l
    return total


def fd_gradient(name, params, embedding, batch, manifest, lambdas, l2_lambda,
                step=1e-5):
    """Central finite differences of the partition-matched objective w.r.t.
    one named parameter array."""
    coeffs = partition_objective(name.split(".", 1)[0], manifest, lambdas)
    base = params[name]
    grad = np.zeros_like(base)
    work = {k: (v.copy() if k == name else v) for k, v in params.items()}
    for i in range(base.size):
        orig = base.flat[i]
        work[name].flat[i] = orig + step
        up = objective_value(work, embedding, batch, manifest, lambdas, l2_lambda, coeffs)
        work[name].flat[i] = orig - step
        down = objective_value(work, embedding, batch, manifest, lambdas, l2_lambda, coeffs)
        work[name].flat[i] = orig
        grad.flat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    a, n = np.asarray(analytic), np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def epoch_pairs(corpus, window, rng):
    """(center, context) id pairs for one skip-gram epoch, one position at a
    time: each post of two or more tokens draws one span per position, and
    the center pairs with every other token within that span."""
    centers, contexts = [], []
    for ids in corpus:
        n = len(ids)
        if n < 2:
            continue
        spans = rng.integers(1, window + 1, size=n)
        for i in range(n):
            lo = max(0, i - int(spans[i]))
            hi = min(n, i + int(spans[i]) + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(ids[i])
                    contexts.append(ids[j])
    return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)
