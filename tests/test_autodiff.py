import numpy as np
import pytest

from lczkit import autodiff as ad
from lczkit.autodiff import Adam, Tensor, backward, check_gradient
from lczkit.errors import UsageError

RNG = np.random.default_rng(20240401)


def _away_from_zero(shape, margin=0.05):
    """Random values with |x| > margin, keeping relu/abs kinks far from h."""
    v = RNG.standard_normal(shape)
    return v + np.copysign(margin, v)


def test_forward_add():
    y = ad.add(Tensor(np.array(2.0)), Tensor(np.array(3.0)))
    assert y.value == 5.0


def test_forward_relu_negative():
    assert ad.relu(Tensor(np.array(-1.0))).value == 0.0


def test_backward_linear():
    x = Tensor(np.array(2.0))
    y = ad.scale(x, 3.0)
    backward(y, [x])
    assert x.grad == 3.0


def test_backward_square_at_zero():
    x = Tensor(np.array(0.0))
    backward(ad.square(x), [x])
    assert x.grad == 0.0


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3))
    with pytest.raises(UsageError):
        backward(ad.scale(x, 2.0), [x])


def test_shape_mismatch_names_op():
    with pytest.raises(UsageError) as exc:
        ad.add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    assert "add" in str(exc.value)


def test_mlp_forward_matches_dense_oracle():
    w1, b1 = RNG.standard_normal((5, 4)), RNG.standard_normal(4)
    w2, b2 = RNG.standard_normal((4, 2)), RNG.standard_normal(2)
    x = RNG.standard_normal((3, 5))
    h = ad.relu(ad.affine(Tensor(x), Tensor(w1), Tensor(b1)))
    out = ad.affine(h, Tensor(w2), Tensor(b2))
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(out.value, expected, rtol=1e-12, atol=1e-12)


def primitive_cases(rng):
    """Factories freeze their random constants so each case is a pure
    function of its input, as finite differencing requires."""
    c6 = Tensor(rng.standard_normal(6))
    m32 = Tensor(rng.standard_normal((3, 2)))
    bias2 = Tensor(rng.standard_normal(2))
    return [
        ("add", lambda x: ad.sum_all(ad.square(ad.add(x, c6))), False),
        ("sub", lambda x: ad.sum_all(ad.square(ad.sub(x, c6))), False),
        ("mul", lambda x: ad.sum_all(ad.mul(x, c6)), False),
        ("scale", lambda x: ad.sum_all(ad.scale(x, 1.7)), False),
        ("shift", lambda x: ad.sum_all(ad.square(ad.shift(x, -0.3))), False),
        ("matmul", lambda x: ad.sum_all(ad.matmul(ad.reshape(x, (2, 3)), m32)), False),
        ("affine", lambda x: ad.sum_all(ad.square(
            ad.affine(ad.reshape(x, (2, 3)), m32, bias2))), False),
        ("relu", lambda x: ad.sum_all(ad.relu(x)), True),
        ("tanh", lambda x: ad.sum_all(ad.tanh(x)), False),
        ("exp", lambda x: ad.sum_all(ad.exp(x)), False),
        ("square", lambda x: ad.sum_all(ad.square(x)), False),
        ("abs", lambda x: ad.sum_all(ad.absval(x)), True),
        ("mean", lambda x: ad.mean_all(ad.square(x)), False),
        ("reshape", lambda x: ad.sum_all(ad.square(ad.reshape(x, (3, 2)))), False),
        ("transpose", lambda x: ad.sum_all(ad.square(
            ad.transpose(ad.reshape(x, (2, 3)), (1, 0)))), False),
    ]


@pytest.mark.parametrize("case", primitive_cases(np.random.default_rng(7)),
                         ids=lambda c: c[0])
def test_primitive_gradients_finite_difference(case):
    _, fn, kinked = case
    rng = np.random.default_rng(11)
    for _ in range(10):
        point = rng.standard_normal(6)
        if kinked:
            point = point + np.copysign(0.05, point)
        assert check_gradient(fn, point) <= 1e-5


def test_backward_linearity():
    x0 = RNG.standard_normal(4)

    def f(x):
        return ad.sum_all(ad.square(x))

    def g(x):
        return ad.mean_all(ad.tanh(x))

    a, b = 2.5, -1.25
    leaf = Tensor(x0.copy())
    combo = ad.add(ad.scale(f(leaf), a), ad.scale(g(leaf), b))
    backward(combo, [leaf])
    combined = leaf.grad.copy()
    lf = Tensor(x0.copy())
    backward(f(lf), [lf])
    lg = Tensor(x0.copy())
    backward(g(lg), [lg])
    assert np.allclose(combined, a * lf.grad + b * lg.grad, rtol=1e-12, atol=1e-12)


def test_leaf_not_in_wrt_gets_no_adjoint():
    w, x, unused = (Tensor(RNG.standard_normal(3)) for _ in range(3))
    w.grad = unused.grad = np.ones(3)  # stale adjoints of an earlier sweep
    y = ad.sum_all(ad.mul(x, w))
    backward(y, [x, unused])
    assert w.grad is None  # reachable from y, but not in wrt
    assert unused.grad is None  # in wrt, but y does not depend on it
    assert np.array_equal(x.grad, w.value)


def test_optimizer_only_touches_marked_params():
    w = Tensor(np.ones(2))
    data = Tensor(np.ones(2))
    before = data.value.copy()
    y = ad.sum_all(ad.add(ad.square(w), ad.square(data)))
    opt = Adam([w], lr=0.1)
    backward(y, opt.params)
    opt.step()
    assert np.array_equal(data.value, before)
    assert data.grad is None  # inactive: no adjoint computed
    # first Adam step moves each coordinate by lr * g / (|g| + eps) with g = 2
    assert np.allclose(w.value, 1.0 - 0.1 * 2.0 / (2.0 + ad.ADAM_EPS), rtol=1e-12, atol=0)


def _backward_unpruned(root):
    """The plain sweep: zero adjoints everywhere, every vjp term computed."""
    order = ad.topo_order(root)
    for node in order:
        node.grad = np.zeros(node.shape)
    root.grad = np.ones(())
    for node in reversed(order):
        for parent, vjp in zip(node.parents, node._vjps):
            parent.grad = parent.grad + vjp(node.grad)


def _mlp_loss(params, x, noise):
    """Two-layer affine/relu/matmul graph with inactive data and noise inputs,
    a node (a) whose first adjoint is its child's adjoint object and which
    is then summed onto, and a node (h1) with three consumers."""
    w1, b1, w2, b2, m = params
    h1 = ad.relu(ad.affine(Tensor(x), w1, b1))
    a = ad.matmul(h1, m)
    code = ad.add(ad.add(a, a), ad.mul(ad.tanh(ad.matmul(h1, m)), Tensor(noise)))
    out = ad.affine(ad.add(code, ad.tanh(a)), w2, b2)
    return ad.add(ad.mean_all(ad.square(ad.sub(out, Tensor(x[:, :2])))),
                  ad.scale(ad.sum_all(ad.square(h1)), 1e-3))


def test_pruned_backward_matches_unpruned_reference():
    rng = np.random.default_rng(5)
    x, noise = rng.standard_normal((8, 6)), rng.standard_normal((8, 4))
    values = [rng.standard_normal(s) for s in ((6, 5), (5,), (4, 2), (2,), (5, 4))]
    trained = (False, True, True, False, True)  # w1 and b2 are not in wrt
    params = [Tensor(v) for v in values]
    wrt = [p for p, t in zip(params, trained) if t]
    root = _mlp_loss(params, x, noise)
    backward(root, wrt)
    backward(root, wrt)  # a second sweep starts afresh instead of summing onto the first
    nodes = ad.topo_order(root)
    pruned = [None if n.grad is None else np.array(n.grad) for n in nodes]
    assert [p.grad is not None for p in params] == list(trained)
    assert sum(g is None for g in pruned) == 5  # x, its target slice, noise, w1, b2
    _backward_unpruned(root)
    for node, g in zip(nodes, pruned):
        if g is None:  # inactive: a leaf not in wrt, or only such parents
            assert all(node is not p for p in wrt) and all(
                pruned[nodes.index(p)] is None for p in node.parents)
        else:
            assert g.shape == node.grad.shape
            assert np.array_equal(g, node.grad)


def test_backward_skips_nodes_with_only_inactive_parents():
    def explode(g):
        raise AssertionError("vjp of an inactive node was called")

    data = Tensor(RNG.standard_normal(3))
    inactive = Tensor(data.value * 2.0, parents=(data,), vjps=(explode,))
    w = Tensor(RNG.standard_normal(3))
    backward(ad.sum_all(ad.mul(ad.tanh(inactive), w)), [w])
    assert np.array_equal(w.grad, np.tanh(inactive.value))
    assert inactive.grad is None and data.grad is None


# Blocks of one parameter piece (inside the first and third arrays), of two
# (the first two arrays' boundary) and of three (the third's tail, (1,) and
# the head of (40, 9)), and a short last block.
_ADAM_SHAPES = [(3, ad._ADAM_BLOCK), (ad._ADAM_BLOCK - 10,), (ad._ADAM_BLOCK + 7,), (1,), (40, 9)]


def _adam_grads(rng, shapes):
    """Gradients whose scales range from 1e-6 to 1e2, one scale per array."""
    return [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]


def test_blocked_adam_equals_its_formula_on_whole_arrays():
    rng = np.random.default_rng(3)
    x = [rng.standard_normal(s) for s in _ADAM_SHAPES]
    params = [Tensor(a.copy()) for a in x]
    opt = Adam(params, lr=3e-3)
    n = ad._ADAM_BLOCK
    assert [block[-3:] for block in opt._blocks] == [
        (0, 0, n), (0, n, 2 * n), (0, 2 * n, 3 * n), (1, 0, n - 10), (2, 0, n), (2, n, n + 7),
        (3, 0, 1), (4, 0, 360)]
    for value, *_, i, lo, hi in opt._blocks:  # every block lies inside one parameter
        assert [j for j, p in enumerate(params) if np.shares_memory(value, p.value)] == [i]
        assert value.size == hi - lo
    b1, b2, eps, lr = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS, opt.lr
    m, v = [np.zeros(s) for s in _ADAM_SHAPES], [np.zeros(s) for s in _ADAM_SHAPES]
    ends = np.cumsum([a.size for a in x])
    for t in range(1, 7):
        grads = _adam_grads(rng, _ADAM_SHAPES)
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        c = np.sqrt(1.0 - b2 ** t) / np.sqrt(1.0 - b2)
        alpha, eps_t = lr * c * (1.0 - b1) / (1.0 - b1 ** t), eps * c
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + g
            v[i] = b2 * v[i] + g * g
            x[i] = x[i] - alpha * (m[i] / (np.sqrt(v[i]) + eps_t))
            lo, hi = ends[i] - x[i].size, ends[i]
            assert np.array_equal(params[i].value, x[i])
            assert np.array_equal(opt.m[lo:hi], m[i].ravel())
            assert np.array_equal(opt.v[lo:hi], v[i].ravel())
    assert opt.t == 6


def test_adam_matches_textbook_formula():
    rng = np.random.default_rng(4)
    x = [rng.standard_normal(s) for s in _ADAM_SHAPES]
    params = [Tensor(a.copy()) for a in x]
    opt = Adam(params, lr=3e-3)
    b1, b2, eps = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS
    m, v = [np.zeros(s) for s in _ADAM_SHAPES], [np.zeros(s) for s in _ADAM_SHAPES]
    for t in range(1, 7):
        grads = _adam_grads(rng, _ADAM_SHAPES)
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat, v_hat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
            x[i] = x[i] - opt.lr * m_hat / (np.sqrt(v_hat) + eps)
    # Relative to each array's largest value: an element near zero carries
    # the same absolute rounding (~1 ulp of the array's values) as the rest.
    for p, ref in zip(params, x):
        assert np.max(np.abs(p.value - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_adam_refuses_a_missing_gradient_and_keeps_its_state():
    rng = np.random.default_rng(5)
    params = [Tensor(rng.standard_normal(s)) for s in ((4, 3), (3,))]
    opt = Adam(params, lr=1e-2)
    for p in params:
        p.grad = rng.standard_normal(p.shape)
    opt.step()
    before = [p.value.copy() for p in params], opt.m.copy(), opt.v.copy()
    params[0].grad = rng.standard_normal((4, 3))
    params[1].grad = None
    with pytest.raises(UsageError, match=r"parameter 1 \(shape \(3,\)\)"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(p.value, b) for p, b in zip(params, before[0]))
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])


def test_determinism_bit_exact():
    x = RNG.standard_normal((4, 4))

    def run():
        leaf = Tensor(x.copy())
        y = ad.mean_all(ad.square(ad.tanh(ad.matmul(leaf, Tensor(x.T.copy())))))
        backward(y, [leaf])
        return y.value.tobytes(), leaf.grad.tobytes()

    assert run() == run()


def test_adam_deterministic():
    def run():
        w = Tensor(np.ones(3))
        opt = Adam([w], lr=0.01)
        for _ in range(20):
            y = ad.sum_all(ad.square(ad.shift(w, -0.5)))
            backward(y, opt.params)
            opt.step()
        return w.value.tobytes()

    assert run() == run()


def test_check_gradient_linear_function():
    w = RNG.standard_normal(5)
    err = check_gradient(lambda x: ad.sum_all(ad.mul(x, Tensor(w))), RNG.standard_normal(5))
    assert err <= 1e-8


def test_check_gradient_constant_function():
    err = check_gradient(lambda x: ad.scale(ad.sum_all(ad.mul(x, Tensor(np.zeros(4)))), 0.0),
                         RNG.standard_normal(4))
    assert err == 0.0


def test_check_gradient_quadratic_form():
    a = RNG.standard_normal((5, 5))
    a = 0.5 * (a + a.T)

    def quad(x):
        col = ad.reshape(x, (5, 1))
        return ad.scale(ad.sum_all(ad.mul(col, ad.matmul(Tensor(a), col))), 0.5)

    point = RNG.standard_normal(5)
    assert check_gradient(quad, point) <= 1e-6
    # analytic gradient of the symmetric form is A x
    leaf = Tensor(point.copy())
    backward(quad(leaf), [leaf])
    assert np.allclose(leaf.grad, a @ point, rtol=1e-10, atol=1e-10)
