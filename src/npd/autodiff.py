"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors are plain numpy float64 ndarrays (row-major); a Node wraps a value
tensor together with a same-shaped gradient buffer and a backward closure.
Each op computes its value, defines _backward(g), which adds the parents'
shares of the node's gradient g to their grads, and returns
Node(value, op, parents, backward=_backward). No closure refers to its own
node, so no graph is a reference cycle and reference counting frees it.
Graphs are built per batch and consumed by backward; gradients accumulate
with ``+=`` across node reuse, and callers zero them between optimizer steps.
A node keeps its closure only if some parent needs a gradient, so a forward
over constants alone (the model's eval-mode forward) holds no closure, and
each op's buffers are freed as soon as its value is no longer read.

A batch of variable-length posts is never padded: pack turns its posts'
lengths into a packing, the batch's L live (step, post) pairs, step-major,
each step's posts longest first, with the first row of each step's block.
The ops that see the time axis work in that packed [L x ...] layout:
lstm_seq takes the embedding table and each pair's token id, projects each
distinct id's row once and gathers the pairs' gate rows from that, runs
each step on the posts still running and returns every pair's state, and
attention_pool scores those states, pools them step by step and reports
its weights as a dense [n x T] array, 0 past each post's end.

The op set is exactly what the emotion model and its losses call: the
dense layer affine (x W + b), elementwise sigmoid, row-wise softmax, 2-D
concatenation, row gather, inverted dropout, the gradient-reversal node
that flips the sign of gradients flowing into the shared encoder from the
attribute discriminators, and fused nodes with hand-written backwards: the
packed LSTM lstm_seq (embedding gather, input projection and recurrence),
the attribute attention attention_pool (scores, per-post softmax and
pooling), and the losses nll, the clipped mean negative log-likelihood of
each row's gold class, sum_squares, the L2 penalty over a list of
parameters, and weighted_total, the weighted sum of 0-d loss terms that
makes the training objective. Ops check their operands' shapes and the
ids that index them, not their scalars: the configs and the checkpoint
manifest that supply grad_reverse's lambda_rev and dropout's rate own
their ranges.
"""

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError


class Node:
    """One vertex of the computation graph.

    value and grad always share a shape; parents are ordered. needs_grad
    marks nodes on a path from a parameter; only they keep their closure as
    _backward, so gradient work into pure-constant subgraphs is skipped.
    grad is a zero buffer created on first read, so a node whose gradient
    nobody reads never allocates one.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward", "needs_grad")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 needs_grad: bool | None = None, backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.op = op
        self.parents = parents
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad
        self._backward = backward if needs_grad else None

    def __getattr__(self, name):
        # called only for a slot not yet set; of those, grad starts as zeros
        if name != "grad":
            raise AttributeError(name)
        self.grad = np.zeros(self.value.shape)  # C order, so _add_rows can scatter into it
        return self.grad

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def constant(x) -> Node:
    return Node(x, op="const", needs_grad=False)


def param(x) -> Node:
    node = Node(x, op="param", needs_grad=True)
    node.grad  # materialize eagerly: optimizers index params' grads directly
    return node


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) is value-correct over all of float64: exp overflow gives
    # inf and 1/(1+inf) == 0; only the warning needs suppressing
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _add_rows(table: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """table[idx[k]] += vals[k] for every k, repeated rows accumulating.

    Bit-identical to np.add.at(table, idx, vals): the scatter runs through
    one flat index over the table's elements, and ufunc.at applies its
    indices in order, so each element receives its additions in the same k
    order in both forms. When the row width d is even, the table and vals
    are viewed as complex128, d/2 pairs of float64 per row: a complex add
    is two independent float64 adds, so the bytes are the same (NaN, inf
    and -0.0 included) with half the ufunc.at steps and index entries. A
    view reads bytes as they are, so table and vals must be float64, and
    vals has shape idx.shape + (d,).
    """
    if not table.flags.c_contiguous:
        # reshape would return a copy, and the update would be lost
        raise ContractError(f"_add_rows: table must be C-contiguous, got strides {table.strides}")
    if table.dtype != np.float64 or vals.dtype != np.float64:
        raise ContractError(f"_add_rows: table and vals must be float64, got {table.dtype} "
                            f"and {vals.dtype}")
    d = table.shape[1]
    if vals.shape != idx.shape + (d,):
        raise DimensionError(f"_add_rows: vals must have shape {idx.shape + (d,)}, "
                             f"got {vals.shape}")
    unit, per_row = (np.complex128, d // 2) if d % 2 == 0 else (np.float64, d)
    flat = idx.reshape(-1, 1) * per_row + np.arange(per_row)
    np.add.at(table.reshape(-1).view(unit), flat.reshape(-1), vals.reshape(-1).view(unit))


def sigmoid(x: Node) -> Node:
    y = _sigmoid_stable(x.value)

    def _backward(g):
        x.grad += y * (1.0 - y) * g

    return Node(y, op="sigmoid", parents=(x,), backward=_backward)


def affine(x: Node, w: Node, b: Node) -> Node:
    """The dense layer x W + b: an [n x k] matrix times a [k x m] matrix, plus
    a length-m bias added to every row."""
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise DimensionError(f"affine: x {xv.shape}, w {wv.shape} and b {bv.shape} do not fit")
    y = xv @ wv
    y += bv

    def _backward(g):
        if x.needs_grad:
            x.grad += g @ wv.T
        if w.needs_grad:
            w.grad += xv.T @ g
        if b.needs_grad:
            b.grad += g.sum(axis=0)

    return Node(y, op="affine", parents=(x, w, b), backward=_backward)


def concat(a: Node, b: Node) -> Node:
    """Concatenate an [n x p] and an [n x q] matrix into [n x (p+q)]."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[0] != bv.shape[0]:
        raise DimensionError(f"concat: incompatible shapes {av.shape}, {bv.shape}")
    p = av.shape[1]

    def _backward(g):
        if a.needs_grad:
            a.grad += g[:, :p]
        if b.needs_grad:
            b.grad += g[:, p:]

    return Node(np.concatenate([av, bv], axis=1), op="concat", parents=(a, b),
                backward=_backward)


def softmax_rows(logits: Node) -> Node:
    """Row-wise stabilized softmax over an [n x k] matrix."""
    x = logits.value
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"softmax_rows: expected nonempty matrix, got {x.shape}")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def _backward(g):
        logits.grad += p * (g - (g * p).sum(axis=1, keepdims=True))

    return Node(p, op="softmax_rows", parents=(logits,), backward=_backward)


def rows(table: Node, ids: np.ndarray) -> Node:
    """Gather rows of a [V x d] matrix; repeated ids accumulate gradient."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise DimensionError(f"rows: expected matrix, got {table.value.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise ContractError(f"rows: id out of range for table with {table.value.shape[0]} rows")

    def _backward(g):
        _add_rows(table.grad, idx, g)

    return Node(table.value[idx], op="rows", parents=(table,), backward=_backward)


class Packing(NamedTuple):
    """Where each live (step, post) pair of a batch sits in packed [L x ...]
    buffers, from pack. Pairs are step-major, and within a step the posts
    run longest first, so step t's pairs are the contiguous rows
    start[t]:start[t + 1], led by the posts still running after it. Every
    post runs at step 0, so the first n pairs list the posts longest first
    (stable)."""

    live: np.ndarray   # [T] posts still running at step t
    start: np.ndarray  # [T + 1] first packed row of each step, then L
    post: np.ndarray   # [L] the post of each packed pair
    step: np.ndarray   # [L] the step of each packed pair
    last: np.ndarray   # [n] each post's final pair


def pack(lengths) -> Packing:
    """The packing of a batch from its posts' lengths; an empty batch, or a
    post of length 0, raises ContractError. The arrays are read-only, as
    one packing is shared by every node of a batch."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
        raise ContractError("pack: need a nonempty vector of post lengths, each >= 1")
    n, T = len(lengths), lengths.max()
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    live = (lengths > np.arange(T)[:, None]).sum(axis=1)
    step, ranks = np.nonzero(np.arange(n) < live[:, None])
    start = np.concatenate(([0], np.cumsum(live)))
    packing = Packing(live, start, order[ranks], step, start[lengths - 1] + rank)
    for a in packing:
        a.flags.writeable = False
    return packing


def lstm_seq(table: Node, ids: np.ndarray, wx: Node, b: Node, wh: Node, h0: Node, c0: Node,
             packing: Packing) -> Node:
    """A whole LSTM recurrence over a packed batch as one node, embedding
    gather and input projection included.

    table is the [V x e] embedding matrix and ids the token id of each of
    the batch's L live (step, post) pairs in packing's order (see pack); wx
    [e x 4h], b [4h] and wh [h x 4h] hold the gates in the order i, f, o,
    g. The output is the [L x h] hidden state after each pair, in the same
    order, so its rows packing.last are the posts' final states.

    Padded pairs have no row, so they are never computed, as in PyTorch's
    pack_padded_sequence: step t runs on one contiguous block of live[t]
    rows, and the posts' states before it lead the block of step t - 1. The
    input projection table[u] wx + b runs once per distinct id u, and each
    pair's [4h] row is gathered from it, so only the recurrent product runs
    inside the time loop. The sigmoid gates' rows are stored negated, as are
    their columns of wh, so each step's i, f and o are exp, +1 and a
    reciprocal on one contiguous [k x 3h] block, and its recurrent product
    runs over two contiguous column blocks of wh, built once per call.

    Where no parent needs a gradient (an eval-mode forward of the model),
    no [L x 4h] gate rows are gathered: each step takes its pairs' rows
    from the [U x 4h] projection into an [n x 4h] buffer (np.take with
    out=), and its c and tanh(c) overwrite the first live[t] rows of two [n
    x h] buffers, as those rows hold the posts still running. Only H, the
    output, keeps a row per pair. The arithmetic is the same as with a
    gradient, so both give the same bits.

    When a gradient is needed, the [L x 4h] rows are gathered once before
    the loop, each step writes its gates back over its pairs' rows, and C
    and tanh(c) keep a row per pair; backward then turns the gates into
    their local derivatives for all steps in one vectorised pass, in place,
    so each BPTT step only scales them by dh and dc. The result is the
    gates' pre-activation gradient d, and wx, b, wh and the table take
    theirs from d in one product each after the time loop, the table's as a
    scatter into the rows of its ids.
    """
    live, start = packing.live, packing.start
    n, L, T = len(packing.last), len(packing.post), len(live)
    hd = wh.value.shape[0]
    tv, wxv = table.value, wx.value
    idx = np.asarray(ids, dtype=np.int64)
    if (tv.ndim != 2 or idx.shape != (L,) or wxv.shape != (tv.shape[1], 4 * hd)
            or b.value.shape != (4 * hd,) or wh.value.shape != (hd, 4 * hd)
            or h0.value.shape != (hd,) or c0.value.shape != (hd,)):
        raise DimensionError(
            f"lstm_seq: table {tv.shape}, ids {idx.shape}, wx {wxv.shape}, b {b.value.shape}, "
            f"wh {wh.value.shape}, h0 {h0.value.shape}, c0 {c0.value.shape} "
            f"for {L} packed pairs")
    uniq, inv = np.unique(idx, return_inverse=True)
    if L and (uniq[0] < 0 or uniq[-1] >= tv.shape[0]):
        raise ContractError(f"lstm_seq: id out of range for table with {tv.shape[0]} rows")
    # H and C hold the n initial states, then the packed states: the state
    # before step t is block blk[t], the state after it block blk[t + 1]
    blk = np.concatenate(([0], n + start[:-1]))

    h3 = 3 * hd
    proj = tv[uniq] @ wxv  # [U x 4h], one row per distinct id
    proj += b.value
    np.negative(proj[:, :h3], out=proj[:, :h3])
    parents = (table, wx, b, wh, h0, c0)
    keep = any(node.needs_grad for node in parents)  # backward reads the gates from x
    w = wh.value
    w_s = -w[:, :h3]
    w_g = np.ascontiguousarray(w[:, h3:])
    H = np.empty((n + L, hd))
    H[:n] = h0.value
    if keep:
        x = proj[inv]  # [L x 4h]: each pair's -pre of i, f and o, then pre of g
        del proj  # not needed past the gather
        C, tanh_c = np.empty((n + L, hd)), np.empty((L, hd))
    else:
        # each step gathers its rows into x and overwrites c and tanh(c) in place
        x, C, tanh_c = np.empty((n, 4 * hd)), np.empty((n, hd)), np.empty((n, hd))
    C[:n] = c0.value
    sig_buf, acc_s = np.empty((n, h3)), np.empty((n, h3))
    g_buf, acc_g = np.empty((n, hd)), np.empty((n, hd))
    with np.errstate(over="ignore"):  # exp(-z) -> inf still gives sigmoid 0
        for t in range(T):
            k, p, s, e = live[t], blk[t], start[t], start[t + 1]
            if keep:
                x_t, c_prev, c, tc = x[s:e], C[p : p + k], C[n + s : n + e], tanh_c[s:e]
            else:  # inv holds valid rows, so "clip" only skips take's buffered copy
                x_t = np.take(proj, inv[s:e], axis=0, out=x[:k], mode="clip")
                c_prev = c = C[:k]
                tc = tanh_c[:k]
            h_prev = H[p : p + k]
            sig, g = sig_buf[:k], g_buf[:k]
            np.matmul(h_prev, w_s, out=acc_s[:k])
            np.add(x_t[:, :h3], acc_s[:k], out=sig)
            np.exp(sig, out=sig)  # 1 / (1 + exp(-z)), in place
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.matmul(h_prev, w_g, out=acc_g[:k])
            np.add(x_t[:, h3:], acc_g[:k], out=g)
            np.tanh(g, out=g)
            np.multiply(sig[:, hd : 2 * hd], c_prev, out=c)
            np.multiply(sig[:, :hd], g, out=acc_g[:k])
            c += acc_g[:k]
            np.tanh(c, out=tc)
            np.multiply(sig[:, 2 * hd :], tc, out=H[n + s : n + e])
            if keep:
                x_t[:, :h3] = sig
                x_t[:, h3:] = g
    h_t = H[n:]  # o tanh(c) of each pair

    def _backward(d_out):
        steps = packing.step
        prev = blk[steps] + np.arange(L) - start[steps]  # H and C rows of each previous state
        gi, gf, go, gg = (x[:, j * hd : (j + 1) * hd] for j in range(4))
        # each gate's slot becomes d c_t / d pre (d h_t / d pre for o), in
        # place; f stays as dc's carry factor, and a = o (1 - tanh(c)^2),
        # dh's share of dc, takes tanh(c)'s buffer
        f = gf.copy()
        u = C[prev]
        u *= f
        np.subtract(1.0, gf, out=gf)
        gf *= u  # (1 - f) f c_prev
        a = tanh_c
        np.multiply(h_t, a, out=a)
        np.subtract(go, a, out=a)
        np.subtract(1.0, go, out=go)
        go *= h_t  # (1 - o) o tanh(c)
        np.multiply(gi, gg, out=u)
        np.multiply(u, gg, out=gg)
        np.subtract(gi, gg, out=gg)  # i (1 - g^2)
        np.subtract(1.0, gi, out=gi)
        gi *= u  # (1 - i) i g

        w_t = np.ascontiguousarray(w.T)
        dh = np.zeros((n, hd))  # rows in length order, as the blocks
        dc = np.zeros((n, hd))
        tmp = np.empty((n, hd))
        for t in range(T - 1, -1, -1):
            k, s, e = live[t], start[t], start[t + 1]
            dhk, dck = dh[:k], dc[:k]
            dhk += d_out[s:e]
            np.multiply(dhk, a[s:e], out=tmp[:k])
            dck += tmp[:k]
            d = x[s:e].reshape(k, 4, hd)
            d[:, :2] *= dck[:, None]
            d[:, 2] *= dhk
            d[:, 3] *= dck
            np.matmul(x[s:e], w_t, out=dhk)
            dck *= f[s:e]
        if table.needs_grad:
            _add_rows(table.grad, idx, x @ wxv.T)
        if wx.needs_grad:
            wx.grad += tv[idx].T @ x
        if b.needs_grad:
            b.grad += x.sum(axis=0)
        if wh.needs_grad:
            wh.grad += H[prev].T @ x
        if h0.needs_grad:
            h0.grad += dh.sum(axis=0)
        if c0.needs_grad:
            c0.grad += dc.sum(axis=0)

    return Node(h_t, op="lstm_seq", parents=parents, backward=_backward)


def attention_pool(states: Node, w: Node, b: Node, u: Node,
                   packing: Packing) -> tuple[np.ndarray, Node]:
    """Attribute attention over a packed batch as one node: (weights, pooled).

    states is the [L x h] encoder output of the batch's L live (step, post)
    pairs, in packing's order (see pack). Pair j scores
    u . tanh(states[j] W + b), so only live pairs are projected and scored.
    weights is the dense [n x T] array of each post's softmax over its own
    steps, padded steps getting exactly 0, and the [n x h] node pooled holds
    each post's sum of its pairs' weights times their states. Pooling runs
    step by step, as lstm_seq does: step t's block of live[t] pairs adds
    into the first live[t] rows of an [n x h] buffer, so no [L x h] weighted
    copy of the states is ever made.
    """
    post, step = packing.post, packing.step
    n, T = len(packing.last), len(packing.live)
    s, wv = states.value, w.value
    if (s.ndim != 2 or wv.ndim != 2 or s.shape != (len(post), wv.shape[0])
            or b.value.shape != (wv.shape[1],) or u.value.shape != (wv.shape[1],)):
        raise DimensionError(f"attention_pool: states {s.shape}, w {wv.shape}, "
                             f"b {b.value.shape}, u {u.value.shape} for {len(post)} packed pairs")
    proj = s @ wv
    proj += b.value
    np.tanh(proj, out=proj)
    scores = np.full((n, T), -np.inf)
    scores[post, step] = proj @ u.value
    scores -= scores.max(axis=1, keepdims=True)
    alpha = np.exp(scores)  # exp(-inf) = 0 on padded steps
    alpha /= alpha.sum(axis=1, keepdims=True)
    a = alpha[post, step]  # each pair's weight

    def _backward(d_pooled):
        g = d_pooled[post]  # each pair's post's pooled gradient
        d_a = np.einsum("ld,ld->l", g, s)
        d_s = a * (d_a - np.bincount(post, weights=d_a * a, minlength=n)[post])
        if u.needs_grad:
            u.grad += proj.T @ d_s
        d_pre = np.outer(d_s, u.value) * (1.0 - proj * proj)
        if b.needs_grad:
            b.grad += d_pre.sum(axis=0)
        if w.needs_grad:
            w.grad += s.T @ d_pre
        if states.needs_grad:
            states.grad += d_pre @ wv.T + a[:, None] * g

    # step t's block adds into the first live[t] rows, which hold the posts
    # in length order; one scatter through post[:n] restores batch order
    acc = np.zeros((n, s.shape[1]))
    tmp = np.empty_like(acc)
    for k, j in zip(packing.live, packing.start):
        np.multiply(a[j : j + k, None], s[j : j + k], out=tmp[:k])
        acc[:k] += tmp[:k]
    pooled = np.empty_like(acc)
    pooled[post[:n]] = acc
    return alpha, Node(pooled, op="attention_pool", parents=(states, w, b, u),
                       backward=_backward)


def nll(probs: Node, gold: np.ndarray, lo: float, hi: float) -> Node:
    """Mean negative log-likelihood of each row's gold class, as a 0-d node.

    probs is an [n x k] matrix of class probabilities and gold holds one
    class index per row; the value is -(1/n) * sum_i log clip(probs[i,
    gold[i]], lo, hi). A one-column probs is P(class 1) of a two-class
    label, so gold 0 picks 1 - probs[i, 0]. The clip keeps the log finite on
    collapsed probabilities, and gradient flows only into picked entries it
    left unchanged.
    """
    p = probs.value
    j = np.asarray(gold, dtype=np.int64)
    if p.ndim != 2 or j.shape != (p.shape[0],):
        raise DimensionError(f"nll: probabilities {p.shape} with gold shape {j.shape}")
    n = p.shape[0]
    r = np.arange(n)
    if p.shape[1] == 1:  # P(class 1): gold 0 picks 1 - p, whose gradient flips sign
        if not np.isin(j, (0, 1)).all():
            raise ContractError("nll: a one-column probs needs gold labels 0 and 1")
        picked = np.where(j == 1, p[:, 0], 1.0 - p[:, 0])
        col, sign = np.zeros_like(j), 2.0 * j - 1.0
    else:
        picked, col, sign = p[r, j], j, 1.0
    clipped = np.clip(picked, lo, hi)

    def _backward(g):
        inside = (picked >= lo) & (picked <= hi)
        probs.grad[r, col] += sign * ((-1.0 / n) * g / clipped * inside)

    return Node((-1.0 / n) * np.log(clipped).sum(), op="nll", parents=(probs,),
                backward=_backward)


def sum_squares(nodes: list[Node]) -> Node:
    """Sum of the squared entries of every node in the list, as a 0-d node."""

    def _backward(g):
        for w in nodes:
            if w.needs_grad:
                w.grad += 2.0 * g * w.value

    return Node(sum(float((w.value * w.value).sum()) for w in nodes), op="sum_squares",
                parents=tuple(nodes), backward=_backward)


def weighted_total(terms: Sequence[Node], weights: Sequence[float]) -> Node:
    """The 0-d node sum_i weights[i] * terms[i] of 0-d terms and float weights, left to right."""
    if len(terms) != len(weights) or any(t.value.ndim != 0 for t in terms):
        raise DimensionError(f"weighted_total: {len(weights)} weights for terms of shapes "
                             f"{[t.value.shape for t in terms]}, expected 0-d terms")

    def _backward(g):
        for t, w in zip(terms, weights):
            if t.needs_grad:
                t.grad += w * g

    return Node(sum(w * t.value for t, w in zip(terms, weights)), op="weighted_total",
                parents=tuple(terms), backward=_backward)


def grad_reverse(x: Node, lambda_rev: float) -> Node:
    """Identity forward; backward multiplies the incoming gradient by -lambda_rev.

    Inserted between the shared encoder and an attribute discriminator, this
    realizes the saddle-point update: the discriminator descends its loss
    while the encoder ascends it, in a single joint backward pass.
    """

    def _backward(g):
        x.grad += -lambda_rev * g

    return Node(x.value, op="grad_reverse", parents=(x,), backward=_backward)


def dropout(x: Node, rate: float, rng: np.random.Generator) -> Node:
    """Inverted dropout: zero each element with probability rate, scale survivors.

    Only training calls it; eval-mode forwards leave it out of the graph.
    """
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)

    def _backward(g):
        x.grad += g * keep

    return Node(x.value * keep, op="dropout", parents=(x,), backward=_backward)


def graph_order(root: Node) -> list[Node]:
    """Every node reachable from root through its parents, each once, with
    parents before children."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Backpropagate from a scalar loss through the whole reachable graph,
    consuming the graph.

    Runs each node's backward closure exactly once, in reverse topological
    order, on the node's grad, and drops it once it has run; nodes not on a
    path to the loss keep their (zero) gradients. Constants have no closure,
    so the walk passes over them at no cost. Dropping a closure frees the
    forward buffers it holds (lstm_seq's gates and states, say) while
    backward goes on, so the peak never holds every node's buffers at once.
    A second backward over the same graph therefore propagates nothing past
    the loss. A loss that no parameter reaches (one built on an eval-mode
    forward, say) raises ContractError, as it would leave every gradient 0.
    """
    if loss.value.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if not loss.needs_grad:
        raise ContractError("backward: the loss reaches no parameter; build it on a "
                            "train-mode forward")
    loss.grad += 1.0
    for node in reversed(graph_order(loss)):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
