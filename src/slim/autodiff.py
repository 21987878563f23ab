"""Minimal reverse-mode differentiation over dense numpy arrays.

Only the operations the pipeline needs are provided. Every op is registered
in ``OP_REGISTRY`` together with a random-input builder so the whole set can
be validated against central finite differences (``grad_check``).

Conventions:
  * values and gradients are float64 ndarrays,
  * backward closures return freshly owned arrays or read-only views; grad
    accumulation is purely functional (``grad = grad + g``), never in place,
  * intermediate gradients are released as the backward sweep consumes them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericError(ArithmeticError):
    """Non-finite values reached an op that requires finite input."""


class Tensor:
    """A node of the differentiation tape."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Run the backward sweep from this tensor, seeded with d(out)/d(self)
        (default 1, for a scalar)."""
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.value)
        order = _topo_order(self)
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._backward is not None:
                # Interior node: free its gradient and break closure refs so
                # large intermediates are reclaimed during the sweep.
                node.grad = None
                node._backward = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(x) -> Tensor:
    """A tensor that never receives gradient."""
    return Tensor(x, requires_grad=False)


def _topo_order(root: Tensor):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _make(value, parents, backward) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_finite(name: str, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"{name}: non-finite input")


# ---------------------------------------------------------------------------
# structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dimensions {a.value.shape} x {b.value.shape}")
    va, vb = a.value, b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ vb.T)
        if b.requires_grad:
            b._accumulate(va.T @ g)

    return _make(va @ vb, (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.value.shape))

    return _make(a.value + b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.value, b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * vb, va.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * va, vb.shape))

    return _make(va * vb, (a, b), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.value
    v = np.empty_like(x)
    pos = x >= 0
    v[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    v[~pos] = ex / (1.0 + ex)

    def backward(g):
        a._accumulate(g * v * (1.0 - v))

    return _make(v, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    v = np.tanh(a.value)

    def backward(g):
        a._accumulate(g * (1.0 - v * v))

    return _make(v, (a,), backward)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer class targets."""
    _check_finite("cross_entropy", logits.value)
    targets = np.asarray(targets, dtype=np.intp)
    n, m = logits.value.shape
    if targets.shape != (n,) or targets.min() < 0 or targets.max() >= m:
        raise ValueError("cross_entropy: targets must be valid class indices")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    v = (lse - z[np.arange(n), targets]).mean()
    p = np.exp(z - lse[:, None])

    def backward(g):
        d = p.copy()
        d[np.arange(n), targets] -= 1.0
        logits._accumulate(g * d / n)

    return _make(v, (logits,), backward)


def kl_div(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) summed over all rows, with 0*log(0) := 0."""
    _check_finite("kl_div", p.value, q.value)
    vp, vq = p.value, q.value
    if np.any(vq <= 0) or np.any(vp < 0):
        raise NumericError("kl_div: requires q > 0 and p >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(vp > 0, vp * (np.log(vp) - np.log(vq)), 0.0)

    def backward(g):
        if p.requires_grad:
            p._accumulate(g * np.where(vp > 0, np.log(vp) - np.log(vq) + 1.0, 0.0))
        if q.requires_grad:
            q._accumulate(-g * vp / vq)

    return _make(terms.sum(), (p, q), backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    op_name: str
    max_relative_error: float
    step: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {
            "op": self.op_name,
            "max_relative_error": self.max_relative_error,
            "step": self.step,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def grad_check(fn: Callable[..., Tensor], inputs, step: float = 1e-5,
               tolerance: float = 1e-4, name: str = "op", rng=None) -> GradCheckReport:
    """Compare the analytic gradient of ``fn`` with central finite differences.

    The (possibly matrix-valued) output is scalarized against a fixed random
    projection so transposed or permuted backward rules cannot cancel out;
    seeding the backward sweep with that projection gives the analytic
    gradient of the scalarized output.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    proj = rng.standard_normal(out.value.shape)

    def scalarize(vals):
        return float((fn(*[Tensor(v) for v in vals]).value * proj).sum())

    out.backward(proj)
    max_err = 0.0
    for i, base in enumerate(arrays):
        analytic = tensors[i].grad
        analytic = np.zeros_like(base) if analytic is None else analytic
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            bumped = [v.copy() for v in arrays]
            bumped[i][idx] += step
            up = scalarize(bumped)
            bumped[i][idx] -= 2.0 * step
            down = scalarize(bumped)
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
            it.iternext()
    return GradCheckReport(name, max_err, step, tolerance, max_err <= tolerance)


def _builders():
    """Random-input builders for every registered differentiable op."""

    def two(rng):
        return rng.standard_normal((3, 4)), rng.standard_normal((4, 2))

    reg = {}
    reg["matmul"] = lambda rng: (lambda a, b: matmul(a, b), two(rng))
    reg["add"] = lambda rng: (add, [rng.standard_normal((3, 4)), rng.standard_normal(4)])
    reg["mul"] = lambda rng: (mul, [rng.standard_normal((3, 4)), rng.standard_normal((3, 1))])
    reg["sigmoid"] = lambda rng: (sigmoid, [rng.standard_normal((3, 4))])
    reg["tanh"] = lambda rng: (tanh, [rng.standard_normal((3, 4))])

    def ce(rng):
        logits = rng.standard_normal((5, 3))
        targets = rng.integers(0, 3, 5)
        return (lambda a: cross_entropy(a, targets), [logits])

    reg["cross_entropy"] = ce

    def kl(rng):
        p = rng.uniform(0.1, 1.0, (4, 3))
        q = rng.uniform(0.1, 1.0, (4, 3))
        return (kl_div, [p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)])

    reg["kl_div"] = kl
    return reg


OP_REGISTRY = _builders()


def check_registered_ops(step: float = 1e-5, tolerance: float = 1e-4, seed: int = 0):
    """Gradient-check every registered op; returns a list of reports."""
    reports = []
    for name, build in OP_REGISTRY.items():
        rng = np.random.default_rng(seed)
        fn, inputs = build(rng)
        reports.append(grad_check(fn, inputs, step=step, tolerance=tolerance, name=name, rng=rng))
    return reports
