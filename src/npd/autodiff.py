"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors are plain numpy float64 ndarrays (row-major); a Node wraps a value
tensor together with a same-shaped gradient buffer and a backward closure.
Graphs are built dynamically per batch and consumed by backward. Batches of
variable-length posts are padded to the longest one, and the two ops that
see the time axis take the {0,1} validity mask: lstm_seq carries each
padded row's state through, and softmax_rows gives padded steps
probability 0. Gradients accumulate with ``+=`` across node reuse; callers
zero them between optimizer steps.

The op set is exactly what the emotion model and its losses call: matmul
(matrix by matrix or by vector), elementwise add/scale_shift/tanh/sigmoid,
the bias add add_rowvec, row-wise stabilized softmax, 2-D concatenation,
the row gather and slice/reshape plumbing for step-major sequences, the
fused masked LSTM recurrence lstm_seq with its hand-written backward,
attention pooling weighted_sum, inverted dropout, the gradient-reversal
node that flips the sign of gradients flowing into the shared encoder from
the attribute discriminators, and two fused loss nodes: nll, the clipped
mean negative log-likelihood of each row's gold class, and sum_squares,
the L2 penalty over a list of parameters.
"""

import numpy as np

from .errors import ConfigError, ContractError, DimensionError


class Node:
    """One vertex of the computation graph.

    value and grad always share a shape; parents are ordered; _backward,
    when set, propagates this node's grad into its parents' grads.
    needs_grad marks nodes on a path from a parameter; gradient work into
    pure-constant subgraphs is skipped, and their zero grad buffers are
    materialized only if someone actually reads them.
    """

    __slots__ = ("value", "_grad", "op", "parents", "_backward", "needs_grad")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 needs_grad: bool | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self.op = op
        self.parents = parents
        self._backward = None
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)  # C order, so _add_rows can scatter into it
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

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


def tanh(x: Node) -> Node:
    out = Node(np.tanh(x.value), op="tanh", parents=(x,))
    if out.needs_grad:
        def _backward():
            x.grad += (1.0 - out.value * out.value) * out.grad

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
    """Matrix product of an [n x k] matrix with a [k x m] matrix or a length-k vector."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise DimensionError(f"matmul: unsupported ranks {av.shape} x {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise DimensionError(f"matmul: inner dims of {av.shape} and {bv.shape} disagree")
    out = Node(av @ bv, op="matmul", parents=(a, b))
    if out.needs_grad:
        def _backward():
            g = out.grad
            if a.needs_grad:
                a.grad += g @ bv.T if bv.ndim == 2 else np.outer(g, bv)
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


def row_block(mat: Node, i0: int, i1: int) -> Node:
    """Row slice [i0:i1, :] of a matrix."""
    if mat.value.ndim != 2:
        raise DimensionError(f"row_block: expected matrix, got {mat.value.shape}")
    out = Node(mat.value[i0:i1], op="row_block", parents=(mat,))
    if out.needs_grad:
        def _backward():
            mat.grad[i0:i1] += out.grad

        out._backward = _backward
    return out


def unstack_to_cols(vec: Node, blocks: int, n: int) -> Node:
    """Reinterpret a length blocks*n vector (block-major) as an [n x blocks] matrix."""
    if vec.value.shape != (blocks * n,):
        raise DimensionError(f"unstack_to_cols: expected ({blocks * n},), got {vec.value.shape}")
    out = Node(np.ascontiguousarray(vec.value.reshape(blocks, n).T),
               op="unstack_to_cols", parents=(vec,))
    if out.needs_grad:
        def _backward():
            vec.grad += np.ascontiguousarray(out.grad.T).reshape(-1)

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


def softmax_rows(logits: Node, mask: np.ndarray | None = None) -> Node:
    """Row-wise stabilized softmax over an [n x k] matrix.

    mask, when given, is a constant {0,1} array of the same shape; masked-out
    entries get probability exactly 0 and each row must keep at least one
    valid entry.
    """
    x = logits.value
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"softmax_rows: expected nonempty matrix, got {x.shape}")
    if mask is None:
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
    else:
        neg = np.where(mask > 0, x, -np.inf)
        z = neg - neg.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            e = np.exp(z)
        e = np.where(mask > 0, e, 0.0)
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


def weighted_sum(weights: Node, stacked: Node) -> Node:
    """Pool a [T*n x d] step-major sequence with per-row weights from an [n x T] matrix.

    out[i] = sum_t weights[i, t] * stacked[t*n + i]; this is attention
    pooling fused into one node to keep graphs small on long sequences.
    """
    w, s = weights.value, stacked.value
    if w.ndim != 2 or s.ndim != 2 or s.shape[0] != w.size:
        raise DimensionError(f"weighted_sum: weights {w.shape} vs items {s.shape}")
    n, T = w.shape
    items = s.reshape(T, n, -1)
    out = Node(np.einsum("nt,tnd->nd", w, items), op="weighted_sum",
               parents=(weights, stacked))
    if out.needs_grad:
        def _backward():
            g = out.grad
            if weights.needs_grad:
                weights.grad += np.einsum("nd,tnd->nt", g, items)
            if stacked.needs_grad:
                stacked.grad += (w.T[:, :, None] * g).reshape(T * n, -1)

        out._backward = _backward
    return out


def lstm_seq(pre_x: Node, wh: Node, b: Node, h0: Node, c0: Node,
             mask: np.ndarray) -> Node:
    """A whole masked LSTM recurrence as one node.

    pre_x is the [T*n x 4h] input projection, step-major, with gates in the
    order i, f, o, g; mask is the constant [n x T] {0,1} validity array. The
    output holds every step's hidden state as [T*n x h], step-major. Where
    mask[i, t] == 0, row i carries its h and c unchanged, so the last block
    holds each row's final state. The activated gates of all steps live in
    one [T x n x 4h] buffer next to tanh(c), h and c; the backward pass runs
    masked BPTT over them, gives padded rows of pre_x exactly 0 gradient,
    and accumulates wh's gradient in one matmul after the time loop.
    """
    n, T = mask.shape
    hd = wh.value.shape[0]
    if (pre_x.value.shape != (T * n, 4 * hd) or wh.value.shape != (hd, 4 * hd)
            or b.value.shape != (4 * hd,) or h0.value.shape != (hd,)
            or c0.value.shape != (hd,)):
        raise DimensionError(
            f"lstm_seq: pre_x {pre_x.value.shape}, wh {wh.value.shape}, b {b.value.shape}, "
            f"h0 {h0.value.shape}, c0 {c0.value.shape} with mask {mask.shape}")
    keep = (mask.T > 0)[:, :, None]  # [T x n x 1]
    x = pre_x.value.reshape(T, n, 4 * hd)
    w = wh.value
    gates = np.empty((T, n, 4 * hd))
    tanh_c = np.empty((T, n, hd))
    hs = np.empty((T + 1, n, hd))  # hs[t + 1] is the state after step t
    cs = np.empty((T + 1, n, hd))
    hs[0], cs[0] = h0.value, c0.value
    for t in range(T):
        pre = x[t] + hs[t] @ w + b.value
        gt = gates[t]
        gt[:, : 3 * hd] = _sigmoid_stable(pre[:, : 3 * hd])
        gt[:, 3 * hd :] = np.tanh(pre[:, 3 * hd :])
        gi, gf, go, gg = np.split(gt, 4, axis=1)
        c_new = gf * cs[t] + gi * gg
        tanh_c[t] = np.tanh(c_new)
        hs[t + 1] = np.where(keep[t], go * tanh_c[t], hs[t])
        cs[t + 1] = np.where(keep[t], c_new, cs[t])
    out = Node(hs[1:].reshape(T * n, hd), op="lstm_seq", parents=(pre_x, wh, b, h0, c0))
    if out.needs_grad:
        def _backward():
            d_out = out.grad.reshape(T, n, hd)
            d_pre = np.empty((T, n, 4 * hd))
            dh = np.zeros((n, hd))
            dc = np.zeros((n, hd))
            for t in range(T - 1, -1, -1):
                dh = dh + d_out[t]
                # padded rows pass dh and dc straight back to the previous step
                live_h = np.where(keep[t], dh, 0.0)
                live_c = np.where(keep[t], dc, 0.0)
                gi, gf, go, gg = np.split(gates[t], 4, axis=1)
                di, df, do, dg = np.split(d_pre[t], 4, axis=1)
                live_c = live_c + live_h * go * (1.0 - tanh_c[t] * tanh_c[t])
                di[...] = live_c * gg * gi * (1.0 - gi)
                df[...] = live_c * cs[t] * gf * (1.0 - gf)
                do[...] = live_h * tanh_c[t] * go * (1.0 - go)
                dg[...] = live_c * gi * (1.0 - gg * gg)
                dh = d_pre[t] @ w.T + np.where(keep[t], 0.0, dh)
                dc = live_c * gf + np.where(keep[t], 0.0, dc)
            flat = d_pre.reshape(T * n, 4 * hd)
            if pre_x.needs_grad:
                pre_x.grad += flat
            if wh.needs_grad:
                wh.grad += hs[:-1].reshape(T * n, hd).T @ flat
            if b.needs_grad:
                b.grad += flat.sum(axis=0)
            if h0.needs_grad:
                h0.grad += dh.sum(axis=0)
            if c0.needs_grad:
                c0.grad += dc.sum(axis=0)

        out._backward = _backward
    return out


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


def dropout(x: Node, rate: float, rng: np.random.Generator, train_mode: bool) -> Node:
    """Inverted dropout: zero each element with probability rate, scale survivors.

    Identity in eval mode and at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return x
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
