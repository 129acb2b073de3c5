"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors are plain numpy float64 ndarrays (row-major); a Node wraps a value
tensor together with a same-shaped gradient buffer and a backward closure.
Graphs are built dynamically per batch and consumed by backward. Gradients
accumulate with ``+=`` across node reuse; callers zero them between
optimizer steps.

Batches of variable-length posts are padded to the longest one, and pack
turns the {0,1} validity mask into a packing: the batch's L live (step,
post) pairs, step-major, each step's posts longest first. The ops that see
the time axis work in that packed [L x ...] layout, so padded pairs are
never stored or computed: lstm_seq runs each step on the posts still
running and returns every pair's state, and attention_pool scores those
states and reports its weights as a dense [n x T] array, 0 on padding.

The op set is exactly what the emotion model and its losses call: matrix
product, elementwise add/scale_shift/sigmoid, the bias add add_rowvec,
row-wise softmax, 2-D concatenation, row gather, inverted dropout, the
gradient-reversal node that flips the sign of gradients flowing into the
shared encoder from the attribute discriminators, and fused nodes with
hand-written backwards: the packed LSTM recurrence lstm_seq, the attribute
attention attention_pool (scores, per-post softmax and pooling), and the
losses nll, the clipped mean negative log-likelihood of each row's gold
class, and sum_squares, the L2 penalty over a list of parameters.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, DimensionError


class Node:
    """One vertex of the computation graph.

    value and grad always share a shape; parents are ordered; _backward,
    when set, propagates this node's grad into its parents' grads.
    needs_grad marks nodes on a path from a parameter; gradient work into
    pure-constant subgraphs is skipped. grad is a zero buffer created on
    first read, so a node whose gradient nobody reads never allocates one.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward", "needs_grad")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 needs_grad: bool | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.op = op
        self.parents = parents
        self._backward = None
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad

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

    Bit-identical to np.add.at(table, idx, vals), and about three times
    faster on skip-gram's 2560-row updates: the scatter runs through one
    flat element index, and ufunc.at applies its indices in order, so each
    element receives its additions in the same k order in both forms. vals
    has shape idx.shape + (d,).
    """
    if not table.flags.c_contiguous:
        # reshape would return a copy, and the update would be lost
        raise ContractError(f"_add_rows: table must be C-contiguous, got strides {table.strides}")
    d = table.shape[1]
    flat = idx.reshape(-1, 1) * d + np.arange(d)
    np.add.at(table.reshape(-1), flat.reshape(-1), vals.reshape(-1))


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    out = Node(a.value + b.value, op="add", parents=(a, b))
    if out.needs_grad:
        def _backward():
            if a.needs_grad:
                a.grad += out.grad
            if b.needs_grad:
                b.grad += out.grad

        out._backward = _backward
    return out


def scale_shift(x: Node, k: float, c: float = 0.0) -> Node:
    """k*x + c with python-scalar k, c."""
    out = Node(k * x.value + c, op="scale_shift", parents=(x,))
    if out.needs_grad:
        def _backward():
            x.grad += k * out.grad

        out._backward = _backward
    return out


def sigmoid(x: Node) -> Node:
    out = Node(_sigmoid_stable(x.value), op="sigmoid", parents=(x,))
    if out.needs_grad:
        def _backward():
            x.grad += out.value * (1.0 - out.value) * out.grad

        out._backward = _backward
    return out


def matmul(a: Node, b: Node) -> Node:
    """Matrix product of an [n x k] matrix with a [k x m] matrix."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: shapes {av.shape} and {bv.shape} do not multiply")
    out = Node(av @ bv, op="matmul", parents=(a, b))
    if out.needs_grad:
        def _backward():
            g = out.grad
            if a.needs_grad:
                a.grad += g @ bv.T
            if b.needs_grad:
                b.grad += av.T @ g

        out._backward = _backward
    return out


def add_rowvec(mat: Node, vec: Node) -> Node:
    """Add a length-d vector to every row of an [n x d] matrix (bias add)."""
    if mat.value.ndim != 2 or vec.value.ndim != 1 or mat.value.shape[1] != vec.value.shape[0]:
        raise DimensionError(f"add_rowvec: {mat.value.shape} + {vec.value.shape}")
    out = Node(mat.value + vec.value[None, :], op="add_rowvec", parents=(mat, vec))
    if out.needs_grad:
        def _backward():
            if mat.needs_grad:
                mat.grad += out.grad
            if vec.needs_grad:
                vec.grad += out.grad.sum(axis=0)

        out._backward = _backward
    return out


def concat(a: Node, b: Node) -> Node:
    """Concatenate an [n x p] and an [n x q] matrix into [n x (p+q)]."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[0] != bv.shape[0]:
        raise DimensionError(f"concat: incompatible shapes {av.shape}, {bv.shape}")
    p = av.shape[1]
    out = Node(np.concatenate([av, bv], axis=1), op="concat", parents=(a, b))
    if out.needs_grad:
        def _backward():
            if a.needs_grad:
                a.grad += out.grad[:, :p]
            if b.needs_grad:
                b.grad += out.grad[:, p:]

        out._backward = _backward
    return out


def softmax_rows(logits: Node) -> Node:
    """Row-wise stabilized softmax over an [n x k] matrix."""
    x = logits.value
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"softmax_rows: expected nonempty matrix, got {x.shape}")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = Node(p, op="softmax_rows", parents=(logits,))
    if out.needs_grad:
        def _backward():
            g = out.grad
            logits.grad += p * (g - (g * p).sum(axis=1, keepdims=True))

        out._backward = _backward
    return out


def rows(table: Node, ids: np.ndarray) -> Node:
    """Gather rows of a [V x d] matrix; repeated ids accumulate gradient."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise DimensionError(f"rows: expected matrix, got {table.value.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise ContractError(f"rows: id out of range for table with {table.value.shape[0]} rows")
    out = Node(table.value[idx], op="rows", parents=(table,))
    if out.needs_grad:
        def _backward():
            _add_rows(table.grad, idx, out.grad)

        out._backward = _backward
    return out


class Packing(NamedTuple):
    """Where each live (step, post) pair of a padded batch sits in packed
    [L x ...] buffers, from pack. Pairs are step-major, and within a step the
    posts run longest first, so step t's pairs are one contiguous block of
    live[t] rows, led by the posts still running after it."""

    order: np.ndarray  # [n] posts by length, longest first (stable)
    live: np.ndarray   # [T] posts still running at step t
    post: np.ndarray   # [L] the post of each packed pair
    step: np.ndarray   # [L] the step of each packed pair
    last: np.ndarray   # [n] each post's final pair


def pack(mask: np.ndarray) -> Packing:
    """The packing of a batch from its [n x T] {0,1} validity mask, whose
    rows must be ones up to each post's length and zeros after; a gap, or a
    row with no valid step, raises ContractError. The arrays are read-only,
    as one packing is shared by every node of a batch."""
    valid = np.asarray(mask) > 0
    if valid.ndim != 2:
        raise DimensionError(f"pack: expected an [n x T] mask, got {valid.shape}")
    n, T = valid.shape
    lengths = valid.sum(axis=1)
    if not np.array_equal(valid, np.arange(T) < lengths[:, None]):
        raise ContractError("pack: each mask row must be ones then zeros")
    if not lengths.all():
        raise ContractError("pack: every mask row needs a valid step")
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    live = (lengths > np.arange(T)[:, None]).sum(axis=1)
    step, ranks = np.nonzero(np.arange(n) < live[:, None])
    start = np.concatenate(([0], np.cumsum(live)))
    packing = Packing(order, live, order[ranks], step, start[lengths - 1] + rank)
    for a in packing:
        a.flags.writeable = False
    return packing


def lstm_seq(pre_x: Node, wh: Node, b: Node, h0: Node, c0: Node,
             packing: Packing) -> Node:
    """A whole LSTM recurrence over a packed batch as one node.

    pre_x is the [L x 4h] input projection of the batch's L live (step,
    post) pairs, in packing's order (see pack), with gates in the order i,
    f, o, g. The output is the [L x h] hidden state after each pair, in the
    same order, so its rows packing.last are the posts' final states.

    Padded pairs have no row, so they are never computed, as in PyTorch's
    pack_padded_sequence: step t runs on one contiguous block of live[t]
    rows, and the posts' states before it lead the block of step t - 1. b is
    added into the inputs once, before the time loop. Backward turns the
    stored gates into their local derivatives for all steps in one
    vectorised pass, in place, so each BPTT step only scales them by dh and
    dc; the result is pre_x's gradient as it stands, and wh's gradient is
    one matmul after the time loop.
    """
    live = packing.live
    n, L, T = len(packing.order), len(packing.post), len(live)
    hd = wh.value.shape[0]
    if (pre_x.value.shape != (L, 4 * hd) or wh.value.shape != (hd, 4 * hd)
            or b.value.shape != (4 * hd,) or h0.value.shape != (hd,)
            or c0.value.shape != (hd,)):
        raise DimensionError(
            f"lstm_seq: pre_x {pre_x.value.shape}, wh {wh.value.shape}, b {b.value.shape}, "
            f"h0 {h0.value.shape}, c0 {c0.value.shape} for {L} packed pairs")
    start = np.concatenate(([0], np.cumsum(live)))  # step t is packed rows start[t]:start[t+1]
    # H and C hold the n initial states, then the packed states: the state
    # before step t is block blk[t], the state after it block blk[t + 1]
    blk = np.concatenate(([0], n + start[:-1]))

    x = pre_x.value + b.value  # [L x 4h], becomes the gates in place
    w = wh.value
    H = np.empty((n + L, hd))
    C = np.empty((n + L, hd))
    tanh_c = np.empty((L, hd))
    H[:n], C[:n] = h0.value, c0.value
    acc = np.empty((n, 4 * hd))
    with np.errstate(over="ignore"):  # exp(-z) -> inf still gives sigmoid 0
        for t in range(T):
            k, p, s, e = live[t], blk[t], start[t], start[t + 1]
            g = x[s:e]
            np.matmul(H[p : p + k], w, out=acc[:k])
            g += acc[:k]
            sig = g[:, : 3 * hd]  # 1 / (1 + exp(-z)), in place
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(g[:, 3 * hd :], out=g[:, 3 * hd :])
            c = C[n + s : n + e]
            np.multiply(g[:, hd : 2 * hd], C[p : p + k], out=c)
            np.multiply(g[:, :hd], g[:, 3 * hd :], out=acc[:k, :hd])
            c += acc[:k, :hd]
            np.tanh(c, out=tanh_c[s:e])
            np.multiply(g[:, 2 * hd : 3 * hd], tanh_c[s:e], out=H[n + s : n + e])
    h_t = H[n:]  # o tanh(c) of each pair
    out = Node(h_t, op="lstm_seq", parents=(pre_x, wh, b, h0, c0))
    if out.needs_grad:
        def _backward():
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

            d_out = out.grad
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
            if pre_x.needs_grad:
                pre_x.grad += x
            if wh.needs_grad:
                wh.grad += H[prev].T @ x
            if b.needs_grad:
                b.grad += x.sum(axis=0)
            if h0.needs_grad:
                h0.grad += dh.sum(axis=0)
            if c0.needs_grad:
                c0.grad += dc.sum(axis=0)

        out._backward = _backward
    return out


def attention_pool(states: Node, w: Node, b: Node, u: Node,
                   packing: Packing) -> tuple[np.ndarray, Node]:
    """Attribute attention over a packed batch as one node: (weights, pooled).

    states is the [L x h] encoder output of the batch's L live (step, post)
    pairs, in packing's order (see pack). Pair j scores
    u . tanh(states[j] W + b), so only live pairs are projected and scored.
    weights is the dense [n x T] array of each post's softmax over its own
    steps, padded steps getting exactly 0, and the [n x h] node pooled holds
    each post's sum of its pairs' weights times their states.
    """
    post, step = packing.post, packing.step
    n, T = len(packing.order), len(packing.live)
    s, wv = states.value, w.value
    if (s.ndim != 2 or wv.ndim != 2 or s.shape != (len(post), wv.shape[0])
            or b.value.shape != (wv.shape[1],) or u.value.shape != (wv.shape[1],)):
        raise DimensionError(f"attention_pool: states {s.shape}, w {wv.shape}, "
                             f"b {b.value.shape}, u {u.value.shape} for {len(post)} packed pairs")
    proj = np.tanh(s @ wv + b.value)
    scores = np.full((n, T), -np.inf)
    scores[post, step] = proj @ u.value
    scores -= scores.max(axis=1, keepdims=True)
    alpha = np.exp(scores)  # exp(-inf) = 0 on padded steps
    alpha /= alpha.sum(axis=1, keepdims=True)
    a = alpha[post, step]  # each pair's weight
    by_post = np.argsort(post, kind="stable")  # each post's pairs, one run per post
    runs = np.concatenate(([0], np.cumsum(step[packing.last] + 1)[:-1]))
    out = Node(np.add.reduceat((s * a[:, None])[by_post], runs, axis=0),
               op="attention_pool", parents=(states, w, b, u))
    if out.needs_grad:
        def _backward():
            g = out.grad[post]  # each pair's post's pooled gradient
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

        out._backward = _backward
    return alpha, out


def nll(probs: Node, gold: np.ndarray, lo: float, hi: float) -> Node:
    """Mean negative log-likelihood of each row's gold class, as a 0-d node.

    probs is an [n x k] matrix of class probabilities and gold holds one
    class index per row; the value is -(1/n) * sum_i log clip(probs[i,
    gold[i]], lo, hi). The clip keeps the log finite on collapsed
    probabilities, and gradient flows only into picked entries it left
    unchanged.
    """
    p = probs.value
    j = np.asarray(gold, dtype=np.int64)
    if p.ndim != 2 or j.shape != (p.shape[0],):
        raise DimensionError(f"nll: probabilities {p.shape} with gold shape {j.shape}")
    n = p.shape[0]
    r = np.arange(n)
    picked = p[r, j]
    clipped = np.clip(picked, lo, hi)
    out = Node((-1.0 / n) * np.log(clipped).sum(), op="nll", parents=(probs,))
    if out.needs_grad:
        inside = (picked >= lo) & (picked <= hi)

        def _backward():
            probs.grad[r, j] += (-1.0 / n) * out.grad / clipped * inside

        out._backward = _backward
    return out


def sum_squares(nodes: list[Node]) -> Node:
    """Sum of the squared entries of every node in the list, as a 0-d node."""
    out = Node(sum(float((w.value * w.value).sum()) for w in nodes), op="sum_squares",
               parents=tuple(nodes))
    if out.needs_grad:
        def _backward():
            for w in nodes:
                if w.needs_grad:
                    w.grad += 2.0 * out.grad * w.value

        out._backward = _backward
    return out


def grad_reverse(x: Node, lambda_rev: float) -> Node:
    """Identity forward; backward multiplies the incoming gradient by -lambda_rev.

    Inserted between the shared encoder and an attribute discriminator, this
    realizes the saddle-point update: the discriminator descends its loss
    while the encoder ascends it, in a single joint backward pass.
    """
    if not (np.isfinite(lambda_rev) and lambda_rev >= 0):
        raise ConfigError(f"grad_reverse: lambda_rev must be >= 0 and finite, got {lambda_rev}")
    out = Node(x.value, op="grad_reverse", parents=(x,))
    if out.needs_grad:
        def _backward():
            x.grad += -lambda_rev * out.grad

        out._backward = _backward
    return out


def dropout(x: Node, rate: float, rng: np.random.Generator) -> Node:
    """Inverted dropout: zero each element with probability rate, scale survivors.

    Only training calls it; eval-mode forwards leave it out of the graph.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    out = Node(x.value * keep, op="dropout", parents=(x,))
    if out.needs_grad:
        def _backward():
            x.grad += out.grad * keep

        out._backward = _backward
    return out


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
    order, and drops it once it has run; nodes not on a path to the loss
    keep their (zero) gradients. Constants have no closure, so the walk
    passes over them at no cost. A closure refers to its own node, so a
    graph that still holds its closures is a reference cycle that only the
    cyclic garbage collector frees; without them, the graph's buffers are
    released as soon as the caller drops the loss. A second backward over
    the same graph would therefore propagate nothing past the loss.
    """
    if loss.value.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    loss.grad += 1.0
    for node in reversed(graph_order(loss)):
        if node._backward is not None:
            node._backward()
            node._backward = None
