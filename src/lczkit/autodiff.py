"""Minimal reverse-mode automatic differentiation on dense float64 tensors.

Op vocabulary: elementwise add/sub/mul, scalar scale/shift, matmul, affine
(matmul plus row-broadcast bias), relu, tanh, exp, square, abs,
mean/sum reductions, reshape/transpose. No general broadcasting:
elementwise ops require equal shapes, the only broadcast is the bias row in
`affine`. A product with a one-column matrix is a row-wise multiply and
sum, so each row of it rounds alike in any batch.

Each op records one vjp per parent, so the backward pass can be pruned by
activity analysis (Griewank & Walther, *Evaluating Derivatives*): the
independent variables are an argument of `backward(root, wrt)`, not a
property of a tensor. A node is active if it is in `wrt` or any parent is
active, and only the terms of active parents are computed. Data inputs,
reparameterization noise and the weights of a network differentiated in
its input thus cost no adjoint work. `Adam` keeps its parameters' values
and moments in flat buffers and updates them in place, a cache-sized
block of one parameter at a time, in ten passes with one division:
Kingma & Ba's pre-scaled ordering of the update, equal to the textbook
formula up to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, UsageError

# Elements per Adam block (256 KiB per float64 operand), so the ten passes of
# the update over a block's value, gradient, moments and scratch row (~1.25
# MiB together) reuse them from cache instead of streaming whole arrays from
# memory. On a 2 MiB-L2 Xeon a step over the VAE's 1.86M parameters took
# 13-16 ms at 16k-128k, 16 ms at 8k and 19 ms unblocked (the 14-pass
# textbook update: 19-20 ms at 64k).
_ADAM_BLOCK = 1 << 15

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
FD_STEP = 1e-5  # check_gradient's central-difference step

# Every network call (vae.encode, vae.decode, regressor.predict,
# regressor.grad_wrt_code) runs on at least this many rows: a smaller batch
# is padded with copies of its first row, which are dropped from the result.
# OpenBLAS picks its GEMM kernel by the row count, so a row's bits depend on
# its batch below some size (1, 2-37 rows at the default shapes) and not
# from it on; tests/test_vae.py and tests/test_regressor.py prove the value.
MIN_ROWS = 64


class Tensor:
    """Node in the reverse-mode graph: value, adjoint, parents, and one
    local vjp per parent (g -> that parent's adjoint contribution)."""

    __slots__ = ("value", "grad", "parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = tuple(parents)
        self._vjps = tuple(vjps)

    @property
    def shape(self):
        return self.value.shape


def he_params(layout, rng) -> dict:
    """Trainable parameters of a layout [(name, shape, gain)], drawn in order: a weight
    from N(0, 2 / shape[0]) times gain (He et al., arXiv:1502.01852), a gain-0 entry zeros."""
    return {name: Tensor(rng.standard_normal(shape) * np.sqrt(2.0 / shape[0]) * gain
                         if gain else np.zeros(shape))
            for name, shape, gain in layout}


def _identity(g):
    return g


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise UsageError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return Tensor(a.value + b.value, (a, b), (_identity, _identity))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return Tensor(a.value - b.value, (a, b), (_identity, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    return Tensor(a.value * b.value, (a, b), (lambda g: g * b.value, lambda g: g * a.value))


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return Tensor(a.value * k, (a,), (lambda g: g * k,))


def shift(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return Tensor(a.value + k, (a,), (_identity,))


def pad_rows(arr: np.ndarray) -> np.ndarray:
    """A non-empty batch of fewer than MIN_ROWS rows, with copies of its first
    row appended up to MIN_ROWS; a larger or empty batch as it is."""
    if not 0 < len(arr) < MIN_ROWS:
        return arr
    return np.concatenate([arr, np.repeat(arr[:1], MIN_ROWS - len(arr), axis=0)])


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands. A one-column b is a row-wise multiply and
    sum: numpy would call a GEMV, whose rounding of a row depends on where
    the row sits in the batch."""
    if b.shape[1] == 1:
        return (a * b[:, 0]).sum(axis=1, keepdims=True)
    return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return Tensor(
        _product(a.value, b.value), (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows of x; the bias is added to the
    product in place."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]:
        raise UsageError(f"affine: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise UsageError(f"affine: bias shape {b.shape} does not match {w.shape[1]} outputs")
    value = _product(x.value, w.value)
    np.add(value, b.value, out=value)
    return Tensor(
        value, (x, w, b),
        (lambda g: g @ w.value.T, lambda g: x.value.T @ g, lambda g: g.sum(axis=0)),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0
    return Tensor(np.where(mask, a.value, 0.0), (a,), (lambda g: g * mask,))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.value)
    return Tensor(t, (a,), (lambda g: g * (1.0 - t * t),))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.value)
    return Tensor(e, (a,), (lambda g: g * e,))


def square(a: Tensor) -> Tensor:
    return Tensor(a.value * a.value, (a,), (lambda g: g * 2.0 * a.value,))


def absval(a: Tensor) -> Tensor:
    return Tensor(np.abs(a.value), (a,), (lambda g: g * np.sign(a.value),))


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.value.sum(), (a,), (lambda g: np.broadcast_to(g, a.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    return Tensor(a.value.mean(), (a,), (lambda g: np.broadcast_to(g / n, a.shape).copy(),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return Tensor(a.value.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor(a.value.transpose(axes), (a,), (lambda g: g.transpose(inv),))


def topo_order(root: Tensor):
    """Parents-before-children order of the subgraph reachable from root."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor, wrt) -> None:
    """Populate the adjoints of the leaves in wrt, and of the nodes between
    them and a scalar root.

    Each leaf of wrt starts at `grad = None`, and keeps it if root does not
    depend on it. A node is active if it is in wrt or any of its parents is
    active; the vjp terms of inactive parents are never computed, and every
    inactive node reachable from root is left with `grad = None`. A node's
    first adjoint contribution is taken as is and later ones are added to
    it, in the same order as summing all of them onto zeros, so adjoints
    are bit-identical to the unpruned sweep up to the sign of a zero.
    """
    if root.value.shape != ():
        raise UsageError(f"backward: root must be scalar, got shape {root.value.shape}")
    active = set()
    for leaf in wrt:
        leaf.grad = None
        active.add(id(leaf))
    order = topo_order(root)
    for node in order:  # parents before children
        node.grad = None
        if id(node) in active or any(id(p) in active for p in node.parents):
            active.add(id(node))
    root.grad = np.ones(())
    for node in reversed(order):
        if id(node) not in active:
            continue
        for parent, vjp in zip(node.parents, node._vjps):
            if id(parent) in active:
                contribution = vjp(node.grad)
                parent.grad = contribution if parent.grad is None else parent.grad + contribution


def check_gradient(function, point) -> float:
    """Max over coordinates of |analytic - central difference| / max(1, |analytic|).

    `function` maps a Tensor to a scalar Tensor; analytic gradients come
    from the engine, the reference from central finite differences.
    """
    point = np.asarray(point, dtype=float)
    leaf = Tensor(point.copy())
    out = function(leaf)
    if not np.isfinite(out.value):
        raise NumericError("check_gradient: non-finite function value")
    backward(out, [leaf])
    analytic = leaf.grad.reshape(-1)
    flat = point.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + FD_STEP
        f_plus = function(Tensor(bumped.reshape(point.shape))).value
        bumped[i] = flat[i] - FD_STEP
        f_minus = function(Tensor(bumped.reshape(point.shape))).value
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("check_gradient: non-finite probe value")
        numeric[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    denom = np.maximum(1.0, np.abs(analytic))
    if flat.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


class Adam:
    """Adaptive moment optimizer (Kingma & Ba, arXiv:1412.6980); the default
    trainer for both networks.

    The parameters' values are copied into one contiguous buffer, and each
    `Tensor.value` is rebound to a view of it. `m` and `v` are one flat buffer
    each, kept pre-scaled as m/(1 - b1) and v/(1 - b2), which is the paper's
    "efficient" ordering (end of its section 2) with the bias corrections
    folded into two scalars a step:

        m = b1 * m + g
        v = b2 * v + g * g
        x -= alpha_t * (m / (sqrt(v) + eps_t))

    with c_t = sqrt(1 - b2**t) / sqrt(1 - b2), alpha_t = lr * c_t * (1 - b1)
    / (1 - b1**t) and eps_t = eps * c_t at step t, for b1, b2 and eps the
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS constants.

    This is the textbook update up to rounding. `step` applies it in place
    to each parameter's slices of the flat buffer, `_ADAM_BLOCK` elements
    at most, so all passes over a block hit cache, with the same operations
    in the same order as the formula on whole arrays. A block lies inside
    one parameter and reads its gradient as a view. Every parameter must
    have a gradient.
    """

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        sizes = [p.value.size for p in self.params]
        ends = np.cumsum(sizes, dtype=int)
        starts, size = ends - sizes, sum(sizes)
        flat = np.empty(size)
        for p, lo, hi in zip(self.params, starts, ends):
            flat[lo:hi] = p.value.reshape(-1)
            p.value = flat[lo:hi].reshape(p.shape)
        self.m, self.v = np.zeros(size), np.zeros(size)
        scratch = np.empty(min(size, _ADAM_BLOCK))
        # Per block: (value, m, v, scratch, parameter index, start, stop
        # within that parameter).
        self._blocks = []
        for i, (a, n) in enumerate(zip(starts, sizes)):
            for lo in range(0, n, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, n)
                self._blocks.append((flat[a + lo:a + hi], self.m[a + lo:a + hi],
                                     self.v[a + lo:a + hi], scratch[:hi - lo], i, lo, hi))

    def step(self):
        grads = []
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise UsageError(f"Adam.step: parameter {i} (shape {p.shape}) has no gradient")
            grads.append(np.ravel(p.grad))
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c = np.sqrt(1.0 - b2 ** self.t) / np.sqrt(1.0 - b2)
        alpha = self.lr * c * (1.0 - b1) / (1.0 - b1 ** self.t)
        eps = ADAM_EPS * c
        for x, m, v, t, i, lo, hi in self._blocks:
            g = grads[i][lo:hi]
            np.multiply(m, b1, out=m)
            np.add(m, g, out=m)
            np.square(g, out=t)
            np.multiply(v, b2, out=v)
            np.add(v, t, out=v)
            np.sqrt(v, out=t)
            np.add(t, eps, out=t)
            np.divide(m, t, out=t)
            np.multiply(t, alpha, out=t)
            np.subtract(x, t, out=x)
