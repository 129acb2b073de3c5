"""Unit and gradient-oracle tests for the autodiff engine.

Analytic gradients are checked against central finite differences computed
on plain numpy copies of each computation (the oracle never touches the
graph machinery).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from npd import autodiff as ad
from npd.errors import ContractError, DimensionError

FD_STEP = 1e-5


def numeric_grad(f, x, step=FD_STEP):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def assert_grad_close(analytic, numeric, rel=1e-6):
    a = np.asarray(analytic)
    n = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    assert np.max(np.abs(a - n) / denom) < rel, (
        f"max rel err {np.max(np.abs(a - n) / denom):.3e}"
    )


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def linear_probe(shape, seed=0):
    """Fixed random functional: reduces an op output to a scalar for checking."""
    return np.random.default_rng(seed).standard_normal(shape)


def probe_loss(out, probe):
    """The scalar sum(out * probe) as a hand-built node, so a check of one op
    goes through no other op of the engine."""

    def _backward(g):
        out.grad += g * probe

    return ad.Node((out.value * probe).sum(), op="probe", parents=(out,), backward=_backward)


def zero_bias(w):
    """A zero-bias constant for an affine layer with weights w, for tests
    that need only x W."""
    return ad.constant(np.zeros(np.shape(w)[1]))


class TestAffine:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ad.affine(a, b, zero_bias(b.value)).value, b.value)

    def test_zero(self):
        a = ad.constant([[1.0, 2.0]])
        b = ad.constant([[0.0], [0.0]])
        np.testing.assert_array_equal(ad.affine(a, b, zero_bias(b.value)).value, [[0.0]])

    @pytest.mark.parametrize("shapes,named", [
        (((2, 3), (4, 5), (5,)), r"\(2, 3\).*\(4, 5\).*\(5,\)"),
        (((2, 3), (3, 5), (4,)), r"\(2, 3\).*\(3, 5\).*\(4,\)"),
    ], ids=["inner-dims", "bias-length"])
    def test_shape_mismatch_names_all_shapes(self, shapes, named):
        with pytest.raises(DimensionError, match=named):
            ad.affine(*(ad.constant(np.ones(s)) for s in shapes))

    def test_grad_sum_ab(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b0 = np.array([[1.0], [1.0]])
        a = ad.param(a0)
        out = probe_loss(ad.affine(a, ad.constant(b0), zero_bias(b0)), np.ones((2, 1)))
        ad.backward(out)
        numeric = numeric_grad(lambda av: (av @ b0).sum(), a0)
        np.testing.assert_allclose(a.grad, numeric, atol=1e-6)

    def test_grad_fd_all_inputs(self):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)]
        probe = linear_probe((3, 2))
        nodes = [ad.param(a) for a in arrays]
        ad.backward(probe_loss(ad.affine(*nodes), probe))

        def f(k, v):
            x, w, b = (v if j == k else a for j, a in enumerate(arrays))
            return float(((x @ w + b) * probe).sum())

        for k in range(3):
            assert_grad_close(nodes[k].grad, numeric_grad(lambda v: f(k, v), arrays[k]))

    def test_grad_fd_product_with_zero_bias(self):
        """The matrix product x W, run through affine with a zero-bias constant."""
        sa, sb = (3, 4), (4, 2)
        rng = np.random.default_rng(7)
        a0, b0 = rng.standard_normal(sa), rng.standard_normal(sb)
        probe = linear_probe(np.matmul(a0, b0).shape)
        a, b = ad.param(a0), ad.param(b0)
        loss = probe_loss(ad.affine(a, b, zero_bias(b0)), probe)
        ad.backward(loss)
        assert_grad_close(a.grad, numeric_grad(lambda v: float((np.matmul(v, b0) * probe).sum()), a0))
        assert_grad_close(b.grad, numeric_grad(lambda v: float((np.matmul(a0, v) * probe).sum()), b0))

    def test_grad_fd_bias_broadcast_over_rows(self):
        """A row vector added to every row of a matrix: affine with an
        identity-weight constant."""
        rng = np.random.default_rng(21)
        m0, v0 = rng.standard_normal((4, 3)), rng.standard_normal(3)
        probe = linear_probe((4, 3))
        m, v = ad.param(m0), ad.param(v0)
        ad.backward(probe_loss(ad.affine(m, ad.constant(np.eye(3)), v), probe))
        assert_grad_close(m.grad, numeric_grad(lambda a: float(((a + v0) * probe).sum()), m0))
        assert_grad_close(v.grad, numeric_grad(lambda a: float(((m0 + a) * probe).sum()), v0))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).value == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(ad.constant([-1e3, -50.0, 0.0, 50.0, 1e3])).value
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestSoftmax:
    """The row-wise softmax on one-row matrices."""

    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax_rows(ad.constant([[0.0, 0.0]])).value, [[0.5, 0.5]])

    def test_single_class(self):
        np.testing.assert_array_equal(ad.softmax_rows(ad.constant([[123.4]])).value, [[1.0]])

    def test_reference_values(self):
        # reference computed at 50 decimal digits
        expected = [[0.09003057317038046, 0.24472847105479764, 0.6652409557748219]]
        np.testing.assert_allclose(ad.softmax_rows(ad.constant([[1.0, 2.0, 3.0]])).value,
                                   expected, rtol=0, atol=1e-12)

    def test_simplex_at_large_magnitudes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.uniform(-1e3, 1e3, size=(1, rng.integers(1, 9)))
            p = ad.softmax_rows(ad.constant(logits)).value
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            ad.softmax_rows(ad.constant(np.zeros((1, 0))))

    def test_grad_fd(self):
        x0 = np.array([[0.3, -1.2, 2.0]])
        probe = linear_probe((1, 3))
        x = ad.param(x0)
        ad.backward(probe_loss(ad.softmax_rows(x), probe))

        def f(v):
            e = np.exp(v - v.max())
            return float((e / e.sum() * probe).sum())

        assert_grad_close(x.grad, numeric_grad(f, x0))


class TestConcat:
    def test_empty_left_identity(self):
        out = ad.concat(ad.constant(np.zeros((1, 0))), ad.constant([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_definition(self):
        out = ad.concat(ad.constant([[1.0], [4.0]]), ad.constant([[2.0, 3.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_grad_routes_to_slices(self):
        rng = np.random.default_rng(11)
        a0, b0 = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
        probe = linear_probe((2, 7))
        a, b = ad.param(a0), ad.param(b0)
        ad.backward(probe_loss(ad.sigmoid(ad.concat(a, b)), probe))

        def f_a(v):
            return float((sigmoid(np.concatenate([v, b0], axis=1)) * probe).sum())

        def f_b(v):
            return float((sigmoid(np.concatenate([a0, v], axis=1)) * probe).sum())

        assert_grad_close(a.grad, numeric_grad(f_a, a0))
        assert_grad_close(b.grad, numeric_grad(f_b, b0))

    def test_non_vector_rank_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat(ad.constant(np.ones((2, 2))), ad.constant(np.ones(2)))


class TestGradReverse:
    def test_forward_identity(self):
        x = ad.constant([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(ad.grad_reverse(x, 1.0).value, x.value)

    def test_backward_negates(self):
        x = ad.param([2.0, -1.0, 0.5])
        probe = np.array([1.0, 2.0, 3.0])
        ad.backward(probe_loss(ad.grad_reverse(x, 1.0), probe))
        np.testing.assert_array_equal(x.grad, -probe)

    def test_composed_graphs_negation(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((3, 3))
        v0 = rng.standard_normal((3, 1))

        def build(reversed_path: bool):
            w = ad.param(w0)
            h = ad.sigmoid(ad.affine(w, ad.constant(v0), zero_bias(v0)))
            h = ad.grad_reverse(h, 1.0) if reversed_path else h
            loss = probe_loss(ad.sigmoid(h), np.ones((3, 1)))
            ad.backward(loss)
            return w.grad

        np.testing.assert_allclose(build(True), -build(False), rtol=0, atol=1e-12)


class TestBackward:
    def test_linear_case(self):
        w = ad.param([1.0, 2.0, 3.0])
        ad.backward(probe_loss(w, np.ones(3)))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_unreachable_param_zero_grad(self):
        w = ad.param([1.0, 2.0])
        other = ad.param([3.0])
        ad.backward(ad.sum_squares([other]))
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.constant([1.0, 2.0]))

    def test_loss_reaching_no_param_rejected(self):
        """A loss over constants alone would leave every gradient 0, so
        backward refuses it rather than report a zero gradient."""
        w = ad.param([1.0, 2.0])
        loss = ad.sum_squares([ad.constant(w.value)])
        with pytest.raises(ContractError, match="reaches no parameter"):
            ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_deterministic_rebuild(self):
        def run():
            rng = np.random.default_rng(9)
            w = ad.param(rng.standard_normal((4, 4)))
            x = ad.constant(rng.standard_normal((4, 1)))
            h = ad.sigmoid(ad.affine(w, x, zero_bias(x.value)))
            ad.backward(ad.sum_squares([ad.sigmoid(h), h]))
            return w.grad.copy()

        np.testing.assert_array_equal(run(), run())

    def test_reused_node_accumulates(self):
        x = ad.param(2.0)
        ad.backward(ad.weighted_total([x, x], [1.0, 1.0]))
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_closure_kept_only_on_a_path_from_a_param(self):
        def f(g):
            pass

        consts = (ad.constant(1.0), ad.constant(2.0))
        assert ad.Node(3.0, op="t", parents=consts, backward=f)._backward is None
        node = ad.Node(3.0, op="t", parents=(consts[0], ad.param(2.0)), backward=f)
        assert node._backward is f


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.param([1.0, 2.0])
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.value, [1.0, 2.0])
        ad.backward(probe_loss(out, np.array([3.0, -4.0])))
        np.testing.assert_array_equal(x.grad, [3.0, -4.0])

    def test_zero_fraction(self):
        x = ad.constant(np.ones(100_000))
        out = ad.dropout(x, 0.2, np.random.default_rng(42))
        frac = float(np.mean(out.value == 0.0))
        assert 0.19 <= frac <= 0.21
        survivors = out.value[out.value != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.8)

    def test_grad_matches_mask(self):
        x = ad.param(np.ones(1000))
        out = ad.dropout(x, 0.5, np.random.default_rng(1))
        ad.backward(probe_loss(out, np.ones(1000)))
        kept = out.value != 0.0
        np.testing.assert_allclose(x.grad[kept], 2.0)
        np.testing.assert_allclose(x.grad[~kept], 0.0)


class TestBatchOps:
    """Gradient checks for the batched-sequence plumbing ops."""

    def test_rows_gather_accumulates(self):
        t = ad.param(np.arange(8.0).reshape(4, 2))
        out = ad.rows(t, np.array([1, 1, 3]))
        np.testing.assert_array_equal(out.value, [[2.0, 3.0], [2.0, 3.0], [6.0, 7.0]])
        ad.backward(probe_loss(out, np.ones((3, 2))))
        np.testing.assert_array_equal(t.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_rows_out_of_range(self):
        with pytest.raises(ContractError):
            ad.rows(ad.constant(np.ones((2, 2))), np.array([2]))


class TestLossNodes:
    """FD checks for the fused loss nodes nll and sum_squares."""

    def test_nll_picks_the_gold_column(self):
        m0 = np.array([[0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        m = ad.param(m0)
        out = ad.nll(m, np.array([1, 0, 1]), 1e-12, 1.0)
        np.testing.assert_allclose(out.value, -(math.log(0.8) + math.log(0.6) + math.log(0.7)) / 3,
                                   rtol=0, atol=1e-15)
        ad.backward(out)
        picked = np.array([[0, 1], [1, 0], [0, 1]], dtype=bool)
        np.testing.assert_allclose(m.grad[picked], -1.0 / (3 * m0[picked]), rtol=1e-15)
        np.testing.assert_array_equal(m.grad[~picked], 0.0)

    def test_nll_clamp_range_value_and_grad(self):
        # gold entries below, inside and above the clip range [0.2, 0.6]
        x = ad.param([[0.1, 0.9], [0.5, 0.5], [0.3, 0.7]])
        loss = ad.nll(x, np.array([0, 1, 1]), 0.2, 0.6)
        np.testing.assert_allclose(loss.value, -(math.log(0.2) + math.log(0.5) + math.log(0.6)) / 3,
                                   rtol=0, atol=1e-15)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[0.0, 0.0], [0.0, -1.0 / 1.5], [0.0, 0.0]],
                                   rtol=1e-15, atol=0)

    def test_nll_grad_fd_through_affine(self):
        x0 = np.array([[0.1, 0.2], [0.05, 0.15]])
        gold = np.array([0, 1])
        x = ad.param(x0)
        # 3x + 0.1 through affine with a constant 3I and bias 0.1
        ad.backward(ad.nll(ad.affine(x, ad.constant(3.0 * np.eye(2)), ad.constant(np.full(2, 0.1))),
                           gold, 1e-12, 1.0))

        def f(a):
            return -float(np.log(3 * a[[0, 1], gold] + 0.1).mean())

        assert_grad_close(x.grad, numeric_grad(f, x0))

    def test_nll_grad_fd_repeated_gold(self):
        rng = np.random.default_rng(71)
        p0 = rng.random((6, 3)) + 0.05
        p0 /= p0.sum(axis=1, keepdims=True)
        gold = np.array([2, 0, 2, 2, 1, 0])
        p = ad.param(p0)
        loss = ad.nll(p, gold, 1e-12, 1.0)

        def f(a):
            return -float(np.log(a[np.arange(6), gold]).mean())

        np.testing.assert_allclose(loss.value, f(p0), rtol=0, atol=1e-15)
        ad.backward(loss)
        assert_grad_close(p.grad, numeric_grad(f, p0))

    def test_nll_clamped_entries_get_exactly_zero_grad(self):
        p0 = np.array([[1e-9, 1.0 - 1e-9], [0.4, 0.6], [0.999, 0.001], [0.3, 0.7]])
        gold = np.array([0, 1, 0, 1])
        lo, hi = 1e-3, 0.99
        p = ad.param(p0)
        ad.backward(ad.nll(p, gold, lo, hi))

        def f(a):
            return -float(np.log(np.clip(a[np.arange(4), gold], lo, hi)).mean())

        live = np.zeros_like(p0, dtype=bool)
        live[[1, 3], [1, 1]] = True
        assert_grad_close(p.grad[live], numeric_grad(f, p0)[live])
        np.testing.assert_array_equal(p.grad[~live], 0.0)

    def test_nll_two_class_from_one_probability(self):
        """The gender loss path: a [b x 1] probability p scores [1 - p, p]."""
        rng = np.random.default_rng(72)
        q0 = rng.uniform(0.05, 0.95, size=(5, 1))
        g = np.array([1, 0, 0, 1, 1])
        q = ad.param(q0)
        loss = ad.nll(q, g, 1e-12, 1.0 - 1e-12)

        def f(a):
            p = a[:, 0]
            return -float(np.mean(g * np.log(p) + (1 - g) * np.log(1 - p)))

        np.testing.assert_allclose(loss.value, f(q0), rtol=0, atol=1e-15)
        ad.backward(loss)
        assert_grad_close(q.grad, numeric_grad(f, q0))

    def test_nll_one_column_matches_two_column_bits(self):
        """On a [b x 1] column p, nll gives the same value and gradient bits as
        on the [1 - p, p] matrix built in numpy, clamped rows included."""
        rng = np.random.default_rng(74)
        p0 = np.concatenate([rng.uniform(0.05, 0.95, size=(6, 1)), [[1e-15], [1.0 - 1e-15]]])
        gold = np.array([1, 0, 0, 1, 1, 0, 1, 0])
        lo, hi = 1e-12, 1.0 - 1e-12
        col = ad.param(p0)
        both = ad.param(np.concatenate([1.0 - p0, p0], axis=1))
        one, two = ad.nll(col, gold, lo, hi), ad.nll(both, gold, lo, hi)
        assert one.value.tobytes() == two.value.tobytes()
        ad.backward(one)
        ad.backward(two)
        # d/dp of [1 - p, p] at the gold column: -grad[:, 0] + grad[:, 1],
        # one of the two being 0
        expect = (both.grad[:, 1] - both.grad[:, 0])[:, None]
        assert col.grad.tobytes() == expect.tobytes()
        assert col.grad[-2:].tolist() == [[0.0], [0.0]]  # clamped rows

    def test_nll_one_column_rejects_other_labels(self):
        with pytest.raises(ContractError):
            ad.nll(ad.constant(np.full((2, 1), 0.5)), np.array([0, 2]), 1e-12, 1.0)

    def test_weighted_total_left_to_right_and_grad(self):
        rng = np.random.default_rng(75)
        v = rng.standard_normal(4)
        w = [0.7, 1.3, -0.4, 2.5]
        terms = [ad.param(v[0]), ad.constant(v[1]), ad.param(v[2]), ad.param(v[3])]
        out = ad.weighted_total(terms, w)
        expect = ((w[0] * v[0] + w[1] * v[1]) + w[2] * v[2]) + w[3] * v[3]
        assert out.value.shape == () and out.value.tobytes() == np.float64(expect).tobytes()
        ad.backward(ad.weighted_total([out], [2.0]))
        assert [float(t.grad) for t in terms] == [1.4, 0.0, -0.8, 5.0]  # none into the constant

    def test_weighted_total_shape_mismatch(self):
        a, b = ad.constant(1.0), ad.constant(np.ones(3))
        with pytest.raises(DimensionError):
            ad.weighted_total([a, b], [1.0, 1.0])
        with pytest.raises(DimensionError):
            ad.weighted_total([a, a], [1.0])

    def test_nll_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.nll(ad.constant(np.full((3, 2), 0.5)), np.array([0, 1]), 1e-12, 1.0)

    def test_sum_squares_grad_fd(self):
        rng = np.random.default_rng(73)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal(5), rng.standard_normal((2, 2))]
        nodes = [ad.param(a) for a in arrays]
        loss = ad.weighted_total([ad.sum_squares(nodes)], [0.3])

        def f(k, v):
            parts = [v if j == k else a for j, a in enumerate(arrays)]
            return 0.3 * sum(float((x * x).sum()) for x in parts)

        np.testing.assert_allclose(loss.value, 0.3 * sum(float((a * a).sum()) for a in arrays),
                                   rtol=1e-15)
        ad.backward(loss)
        for k, node in enumerate(nodes):
            assert_grad_close(node.grad, numeric_grad(lambda v: f(k, v), arrays[k]))


class TestInvariants:
    def test_all_finite_on_random_graphs(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            w = ad.param(rng.standard_normal((5, 5)))
            x = ad.constant(rng.standard_normal((1, 5)))
            h = ad.sigmoid(ad.affine(x, w, zero_bias(w.value)))
            p = ad.softmax_rows(h)
            loss = ad.nll(p, rng.integers(5, size=1), 1e-12, 1.0)
            ad.backward(loss)
            assert np.isfinite(loss.value)
            assert np.all(np.isfinite(w.grad))

    def test_grad_shape_matches_value_shape(self):
        rng = np.random.default_rng(56)
        nodes = [
            ad.affine(ad.param(rng.standard_normal((2, 3))), ad.param(rng.standard_normal((3, 4))),
                      ad.constant(np.zeros(4))),
            ad.softmax_rows(ad.param(rng.standard_normal((1, 6)))),
            ad.concat(ad.param(rng.standard_normal((1, 2))), ad.param(rng.standard_normal((1, 3)))),
        ]
        for n in nodes:
            assert n.grad.shape == n.value.shape


def test_every_public_function_has_a_caller_in_the_package():
    """Guards against dead code: each public function, class and method of
    the npd package is referenced from outside its own definition somewhere
    in the package, by name or as an attribute (the CLI handlers through
    set_defaults(func=...), say). Names are matched as text, so a definition
    that shares its name with a referenced one also passes."""
    defined, referenced = [], []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                referenced.append((path.name, node.lineno, node.attr))
            elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")):
                defined.append((path.name, node.name, node.lineno, node.end_lineno))
    assert len(defined) > 80
    unreferenced = [f"{where}:{name}" for where, name, lo, hi in defined
                    if not any(name == ref and not (at == where and lo <= line <= hi)
                               for at, line, ref in referenced)]
    assert unreferenced == []


def test_ufunc_at_only_inside_add_rows():
    """Every scatter in the package goes through ad._add_rows, whose flat index
    (over complex128 pairs when the row width is even, so each ufunc.at step
    adds two float64) is bit-identical to a row-wise np.add.at and several
    times faster; a new np.<ufunc>.at call elsewhere would bring the slow
    row-wise form back."""
    calls, inside = [], []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_add_rows":
                inside.append((path.name, node.lineno, node.end_lineno))
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "at"
                    and isinstance(f.value, ast.Attribute)
                    and isinstance(f.value.value, ast.Name) and f.value.value.id == "np"):
                calls.append((path.name, node.lineno))
    [(name, lo, hi)] = inside
    assert name == "autodiff.py" and calls
    assert [c for c in calls if not (c[0] == name and lo <= c[1] <= hi)] == []


def test_backward_slot_set_only_by_node_and_backward():
    """An op hands its closure to Node(..., backward=) and never sets
    node._backward itself, so no closure refers to its own node and no graph
    is a reference cycle; only Node.__init__ and backward, which drops each
    closure it has run, assign the slot."""
    where = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # each node's innermost function: walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            where += [(path.name, scope.get(node, "<module>")) for t in targets
                      if isinstance(t, ast.Attribute) and t.attr == "_backward"]
    assert sorted(where) == [("autodiff.py", "__init__"), ("autodiff.py", "backward")]


def test_no_import_inside_a_function():
    """The package's modules import each other at the top only, so their
    imports form a DAG that one read of each module's head shows, and a
    name a tracer patches on a module is looked up there at each call."""
    local = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [(path.name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def dense(packed, packing):
    """A packed [L x d] array as a [T x n x d] step-major grid, 0 on padding."""
    grid = np.zeros((len(packing.live), len(packing.last), packed.shape[1]))
    grid[packing.step, packing.post] = packed
    return grid


class TestPack:
    @pytest.mark.parametrize("lengths", [[5, 1, 9, 5, 9], [7], [4, 4, 4], [1, 1, 1, 1]],
                             ids=["ragged-ties", "one-post", "all-equal", "all-length-1"])
    def test_layout(self, lengths):
        packing = ad.pack(lengths)
        n, L = len(lengths), sum(lengths)
        order = np.argsort(-np.array(lengths), kind="stable")
        np.testing.assert_array_equal(packing.post[:n], order)  # step 0 holds every post
        np.testing.assert_array_equal(packing.live, [sum(k > t for k in lengths)
                                                     for t in range(max(lengths))])
        # each step's first row, then L
        np.testing.assert_array_equal(packing.start,
                                      np.searchsorted(packing.step, range(max(lengths) + 1)))
        # every valid (step, post) cell once, step-major, each step's posts a
        # prefix of the length order
        assert len(packing.post) == len(packing.step) == L
        expect = [(t, i) for t in range(max(lengths)) for i in order if t < lengths[i]]
        assert list(zip(packing.step.tolist(), packing.post.tolist())) == expect
        np.testing.assert_array_equal(packing.post[packing.last], np.arange(n))
        np.testing.assert_array_equal(packing.step[packing.last], np.array(lengths) - 1)
        for a in packing:
            assert not a.flags.writeable


def lstm_inputs(lengths, hd, seed, e=3):
    """Random lstm_seq inputs for posts of the given lengths: the [T x n x e]
    grid of every (step, post) cell's input, the five parameters wx, b, wh,
    h0 and c0, and the batch's packing."""
    rng = np.random.default_rng(seed)
    n, T = len(lengths), max(lengths)
    grid = rng.standard_normal((T, n, e))
    params = [0.5 * rng.standard_normal((e, 4 * hd)), 0.5 * rng.standard_normal(4 * hd),
              0.5 * rng.standard_normal((hd, 4 * hd)), 0.5 * rng.standard_normal(hd),
              0.5 * rng.standard_normal(hd)]
    return grid, params, ad.pack(lengths)


def per_pair(grid, packing):
    """An lstm_seq table with one row per live pair, the [L x e] input of
    each pair in packing's order, and the ids arange(L) that pick them."""
    return grid[packing.step, packing.post], np.arange(len(packing.post))


class TestLstmSeq:
    # ascending lengths, and unsorted ones with ties, which packing must reorder
    @pytest.mark.parametrize("lengths", [[1, 6, 13, 30], [5, 1, 9, 5, 9]],
                             ids=["ascending", "unsorted-ties"])
    def test_grad_fd_all_inputs(self, lengths):
        """The per-pair table, wx, b, wh, h0 and c0 all get their
        finite-difference gradient."""
        grid, params, packing = lstm_inputs(lengths, hd=4, seed=61)
        table, ids = per_pair(grid, packing)
        arrays = [table] + params
        probe = linear_probe((sum(lengths), 4), seed=62)
        nodes = [ad.param(a) for a in arrays]
        ad.backward(probe_loss(ad.lstm_seq(nodes[0], ids, *nodes[1:], packing), probe))

        def f(k, v):
            args = [ad.constant(v if j == k else a) for j, a in enumerate(arrays)]
            return float((ad.lstm_seq(args[0], ids, *args[1:], packing).value * probe).sum())

        for k in range(6):
            assert_grad_close(nodes[k].grad, numeric_grad(lambda v: f(k, v), arrays[k]))

    @pytest.mark.parametrize("lengths, e", [([1, 6, 13, 30], 3), ([5, 1, 9, 5, 9], 3),
                                            ([1, 6, 13, 30], 4), ([5, 1, 9, 5, 9], 4)],
                             ids=["ascending", "unsorted-ties",
                                  "ascending-even-width", "unsorted-ties-even-width"])
    def test_distinct_ids_match_per_pair_table(self, lengths, e):
        """Projecting each distinct id once changes no bit: on ids with many
        repeats, lstm_seq over a [V x e] table gives the outputs and the wx,
        b, wh, h0 and c0 gradients of the per-pair table (table[ids],
        arange(L)), and the table's gradient is the per-pair gradients
        summed into their ids' rows, whether _add_rows scatters float64
        elements (odd e) or complex128 pairs (even e)."""
        _, params, packing = lstm_inputs(lengths, hd=4, seed=70, e=e)
        rng = np.random.default_rng(71)
        L = len(packing.post)
        table = rng.standard_normal((8, e))
        ids = rng.integers(1, 7, size=L)  # at most 6 distinct ids; rows 0 and 7 unused
        probe = linear_probe((L, 4), seed=72)

        def run(tab, pair_ids):
            nodes = [ad.param(a) for a in [tab] + params]
            out = ad.lstm_seq(nodes[0], pair_ids, *nodes[1:], packing)
            ad.backward(probe_loss(out, probe))
            return out.value, [node.grad for node in nodes]

        out, (d_table, *grads) = run(table, ids)
        want_out, (d_pairs, *want_grads) = run(table[ids], np.arange(L))
        np.testing.assert_array_equal(out, want_out)
        for g, want in zip(grads, want_grads):
            np.testing.assert_array_equal(g, want)
        want_table = np.zeros_like(table)
        np.add.at(want_table, ids, d_pairs)
        np.testing.assert_array_equal(d_table, want_table)

    @pytest.mark.parametrize("lengths", [[5, 1, 9, 5, 9], [1, 1, 1, 1], [6, 6, 6]],
                             ids=["ragged", "all-length-1", "all-equal"])
    def test_constants_give_the_bytes_of_param_nodes(self, lengths):
        """Over constants lstm_seq gathers each step's gate rows on the fly
        and overwrites c and tanh(c) in [n x h] buffers; over param nodes it
        keeps every pair's gates for backward. Both return the same bytes."""
        _, params, packing = lstm_inputs(lengths, hd=4, seed=73)
        rng = np.random.default_rng(74)
        table = rng.standard_normal((8, 3))
        ids = rng.integers(0, 8, size=len(packing.post))
        kept = ad.lstm_seq(ad.param(table), ids, *map(ad.param, params), packing)
        frozen = ad.lstm_seq(ad.constant(table), ids, *map(ad.constant, params), packing)
        assert kept._backward is not None and frozen._backward is None
        assert frozen.value.tobytes() == kept.value.tobytes()

    @pytest.mark.parametrize("lengths", [[5, 1, 9, 5, 9], [7], [4, 4, 4, 4]],
                             ids=["ties", "one-row", "all-equal"])
    def test_row_permutation_permutes_outputs_and_grads(self, lengths):
        """Packing sorts posts by length; whatever order the batch arrives in,
        permuting its posts permutes the output states and the inputs'
        gradient the same way and leaves the shared parameters' gradients
        alone."""
        grid, params, _ = lstm_inputs(lengths, hd=3, seed=66)
        n, T = len(lengths), max(lengths)
        probe = linear_probe((T, n, 3), seed=67)

        def run(perm):
            packing = ad.pack(np.array(lengths)[perm])
            table, ids = per_pair(grid[:, perm], packing)
            inputs = ad.param(table)
            nodes = [ad.param(a) for a in params]
            out = ad.lstm_seq(inputs, ids, *nodes, packing)
            ad.backward(probe_loss(out, probe[:, perm][packing.step, packing.post]))
            return (dense(out.value, packing), dense(inputs.grad, packing),
                    [node.grad for node in nodes])

        identity = np.arange(n)
        out, d_inputs, grads = run(identity)
        for perm in (identity[::-1], np.random.default_rng(68).permutation(n)):
            p_out, p_d_inputs, p_grads = run(perm)
            np.testing.assert_allclose(p_out, out[:, perm], rtol=0, atol=1e-12)
            np.testing.assert_allclose(p_d_inputs, d_inputs[:, perm], rtol=0, atol=1e-12)
            for g, p_g in zip(grads, p_grads):
                np.testing.assert_allclose(p_g, g, rtol=0, atol=1e-12)

    def test_last_pair_is_final_state(self):
        """The rows packing.last picks are each post's state after its last
        step, as a dense loop over the padded batch computes it: the loop
        runs every step for every post and keeps the old state where the
        mask is 0."""
        lengths = [2, 9, 5, 1, 9]
        grid, (wx, b, wh, h0, c0), packing = lstm_inputs(lengths, hd=3, seed=64)
        table, ids = per_pair(grid, packing)
        out = ad.lstm_seq(ad.constant(table), ids,
                          *map(ad.constant, (wx, b, wh, h0, c0)), packing).value

        mask = (np.arange(max(lengths)) < np.array(lengths)[:, None])[:, :, None]
        h, c = np.tile(h0, (len(lengths), 1)), np.tile(c0, (len(lengths), 1))
        for t in range(max(lengths)):
            pre = grid[t] @ wx + b + h @ wh
            i, f, o = sigmoid(pre[:, :3]), sigmoid(pre[:, 3:6]), sigmoid(pre[:, 6:9])
            c_new = f * c + i * np.tanh(pre[:, 9:])
            h = np.where(mask[:, t], o * np.tanh(c_new), h)
            c = np.where(mask[:, t], c_new, c)
        np.testing.assert_allclose(out[packing.last], h, rtol=0, atol=1e-12)

    def test_all_ones_mask_matches_straightline_recurrence(self):
        grid, (wx, b, wh, h0, c0), packing = lstm_inputs([8, 8, 8], hd=5, seed=65)
        x = grid.reshape(24, 3)  # equal lengths keep the batch order: packed is step-major
        out = ad.lstm_seq(ad.constant(x), np.arange(24),
                          *map(ad.constant, (wx, b, wh, h0, c0)), packing).value

        h, c = np.tile(h0, (3, 1)), np.tile(c0, (3, 1))
        for t in range(8):
            pre = x[3 * t : 3 * t + 3] @ wx + b + h @ wh
            i, f, o, g = (sigmoid(pre[:, :5]), sigmoid(pre[:, 5:10]), sigmoid(pre[:, 10:15]),
                          np.tanh(pre[:, 15:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            np.testing.assert_allclose(out[3 * t : 3 * t + 3], h, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        grid, (wx, b, wh, h0, c0), packing = lstm_inputs([3, 2], hd=2, seed=69)
        x, ids = per_pair(grid, packing)
        for args in ((x, ids, wx[:-1], b, wh, h0, c0), (x, ids, wx, b[:-1], wh, h0, c0),
                     (x, ids[:-1], wx, b, wh, h0, c0)):
            with pytest.raises(DimensionError):
                ad.lstm_seq(ad.constant(args[0]), args[1], *map(ad.constant, args[2:]), packing)

    @pytest.mark.parametrize("bad", [-1, 5], ids=["negative", "past-end"])
    def test_id_out_of_range_rejected(self, bad):
        grid, params, packing = lstm_inputs([3, 2], hd=2, seed=69)
        x, ids = per_pair(grid, packing)
        ids[2] = bad
        with pytest.raises(ContractError):
            ad.lstm_seq(ad.constant(x), ids, *map(ad.constant, params), packing)


def attention_inputs(lengths, hd, seed, a=3):
    """Random attention_pool inputs for posts of the given lengths: the [T x n
    x h] grid of every (step, post) cell's state, the three parameters, and
    the batch's packing."""
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((max(lengths), len(lengths), hd))
    params = [rng.standard_normal((hd, a)), 0.5 * rng.standard_normal(a), rng.standard_normal(a)]
    return grid, params, ad.pack(lengths)


def attention_reference(states, w, b, u, packing):
    """Weights and pooled states computed one post at a time over its own steps only."""
    n, T = len(packing.last), len(packing.live)
    weights, pooled = np.zeros((n, T)), np.zeros((n, states.shape[1]))
    for i in range(n):
        items = states[packing.post == i]  # in step order
        z = np.tanh(items @ w + b) @ u
        e = np.exp(z - z.max())
        weights[i, : len(items)] = e / e.sum()
        pooled[i] = weights[i, : len(items)] @ items
    return weights, pooled


class TestAttentionPool:
    LENGTHS = [5, 1, 7, 5, 7, 3]  # ragged, with ties and a length-1 post

    def test_grad_fd_all_inputs(self):
        grid, params, packing = attention_inputs(self.LENGTHS, hd=4, seed=81)
        arrays = [grid[packing.step, packing.post]] + params
        probe = linear_probe((len(self.LENGTHS), 4), seed=82)
        nodes = [ad.param(a) for a in arrays]
        weights, pooled = ad.attention_pool(*nodes, packing)
        ref_weights, ref_pooled = attention_reference(*arrays, packing)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pooled.value, ref_pooled, rtol=0, atol=1e-14)
        ad.backward(probe_loss(pooled, probe))

        def f(k, v):
            args = [v if j == k else a for j, a in enumerate(arrays)]
            return float((attention_reference(*args, packing)[1] * probe).sum())

        for k in range(4):
            assert_grad_close(nodes[k].grad, numeric_grad(lambda v: f(k, v), arrays[k]))

    def test_padded_steps_get_zero_weight_and_zero_grad(self):
        """The dense weights are exactly 0 on padded steps, which have no row
        in the packed states, so they can neither take weight nor gradient."""
        grid, params, packing = attention_inputs(self.LENGTHS, hd=3, seed=83)
        states = ad.param(grid[packing.step, packing.post])
        weights, pooled = ad.attention_pool(states, *map(ad.constant, params), packing)
        valid = np.arange(max(self.LENGTHS)) < np.array(self.LENGTHS)[:, None]
        np.testing.assert_array_equal(weights[~valid], 0.0)
        assert np.all(weights[valid] > 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        ad.backward(probe_loss(pooled, linear_probe(pooled.value.shape, seed=84)))
        assert states.grad.shape == (sum(self.LENGTHS), 3)
        assert np.all(states.grad != 0.0)

    @pytest.mark.parametrize("lengths", [LENGTHS, [4], [3, 3, 3]],
                             ids=["ties", "one-row", "all-equal"])
    def test_row_permutation_permutes_outputs_and_grads(self, lengths):
        grid, params, _ = attention_inputs(lengths, hd=3, seed=85)
        n = len(lengths)
        probe = linear_probe((n, 3), seed=86)

        def run(perm):
            packing = ad.pack(np.array(lengths)[perm])
            states = ad.param(grid[:, perm][packing.step, packing.post])
            nodes = [states] + [ad.param(a) for a in params]
            weights, pooled = ad.attention_pool(*nodes, packing)
            ad.backward(probe_loss(pooled, probe[perm]))
            return (weights, pooled.value, dense(states.grad, packing),
                    [node.grad for node in nodes[1:]])

        identity = np.arange(n)
        weights, pooled, d_states, grads = run(identity)
        for perm in (identity[::-1], np.random.default_rng(87).permutation(n)):
            p_weights, p_pooled, p_d_states, p_grads = run(perm)
            np.testing.assert_allclose(p_weights, weights[perm], rtol=0, atol=1e-12)
            np.testing.assert_allclose(p_pooled, pooled[perm], rtol=0, atol=1e-12)
            np.testing.assert_allclose(p_d_states, d_states[:, perm], rtol=0, atol=1e-12)
            for g, p_g in zip(grads, p_grads):
                np.testing.assert_allclose(p_g, g, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_shapes(self):
        grid, params, packing = attention_inputs([2, 3], hd=4, seed=88)
        params[0] = np.ones((5, 3))
        states = grid[packing.step, packing.post]
        with pytest.raises(DimensionError,
                           match=r"\(5, 4\).*\(5, 3\).*\(3,\).*\(3,\).*5 packed pairs"):
            ad.attention_pool(*map(ad.constant, [states] + params), packing)

    def test_row_without_valid_step_rejected(self):
        """attention_pool's batch is checked where it is packed: a post of
        length 0, or no post at all, leaves a post with no state to pool."""
        for lengths in ([0, 3], []):
            with pytest.raises(ContractError):
                ad.pack(lengths)
