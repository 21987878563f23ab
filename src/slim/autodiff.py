"""Minimal reverse-mode differentiation over dense numpy arrays.

Only the operations the pipeline differentiates are provided: the affine
layer ``dense``, the joint loss ``weighted_sum``, two activations and the
cross-entropy; the fused ops of the other layers build their nodes with
``_make``. Every op is registered in ``OP_REGISTRY`` together with a
random-input builder so the whole set can be validated against central
finite differences (``grad_check``).

Conventions:
  * values and gradients are float64 ndarrays,
  * backward closures return freshly owned arrays or read-only views;
    accumulation into an interior node is purely functional
    (``grad = grad + g``), never in place,
  * a leaf that requires grad gets a gradient buffer from ``zero_grad``,
    which still leaves ``grad`` None ("no gradient this step"). A sweep's
    first accumulation copies into the buffer (``dense`` writes its weight
    gradient straight into it) and later ones add to it, so a training step
    allocates no parameter-sized gradient; the optimizers' in-place steps
    overwrite it. A leaf without ``zero_grad`` (``grad_check``'s inputs)
    accumulates functionally,
  * intermediate gradients are released as the backward sweep consumes them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """Non-finite values reached an op that requires finite input."""


class Tensor:
    """A node of the differentiation tape."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "_buffer")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._buffer = None   # a leaf's persistent gradient, made by zero_grad

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            if self._buffer is None:
                self.grad = g
            else:
                np.copyto(self._buffer, g)
                self.grad = self._buffer
        elif self.grad is self._buffer:
            self.grad += g
        else:
            self.grad = self.grad + g

    def zero_grad(self):
        """Drop the gradient; a leaf that requires grad keeps (or gets) its
        gradient buffer for the next sweep."""
        if self.requires_grad and self._backward is None and self._buffer is None:
            self._buffer = np.empty_like(self.value)
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


def _check_finite(name: str, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"{name}: non-finite input")


# ---------------------------------------------------------------------------
# layers and activations


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine layer x w + b as one node."""
    vx, vw = x.value, w.value

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ vw.T)
        if w.requires_grad:
            if w.grad is None and w._buffer is not None:
                w.grad = np.matmul(vx.T, g, out=w._buffer)
            else:
                w._accumulate(vx.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _make(vx @ vw + b.value, (x, w, b), backward)


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """The scalar sum of ``weights[i] * terms[i]``, added left to right, as one
    node; a weight of 1.0 is exact."""
    total = terms[0].value * weights[0]
    for t, weight in zip(terms[1:], weights[1:]):
        total = total + t.value * weight

    def backward(g):
        for t, weight in zip(terms, weights):
            if t.requires_grad:
                t._accumulate(g * weight)

    return _make(total, terms, backward)


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
            max_err = float(np.maximum(max_err, err))   # a NaN error stays, and fails
            it.iternext()
    return GradCheckReport(name, max_err, step, tolerance, max_err <= tolerance)


def _builders():
    """Random-input builders for every registered differentiable op."""

    reg = {}
    reg["dense"] = lambda rng: (dense, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                                        rng.standard_normal(2)])
    reg["weighted_sum"] = lambda rng: (lambda *terms: weighted_sum(terms, [1.0, 0.3, 2.5]),
                                       list(rng.standard_normal(3)))
    reg["sigmoid"] = lambda rng: (sigmoid, [rng.standard_normal((3, 4))])
    reg["tanh"] = lambda rng: (tanh, [rng.standard_normal((3, 4))])

    def ce(rng):
        logits = rng.standard_normal((5, 3))
        targets = rng.integers(0, 3, 5)
        return (lambda a: cross_entropy(a, targets), [logits])

    reg["cross_entropy"] = ce

    return reg


OP_REGISTRY = _builders()
OP_CHECK_SEED = 0   # seeds the generator that draws each op's check case


def check_registered_ops(step: float = 1e-5, tolerance: float = 1e-4):
    """Gradient-check every registered op; returns a list of reports."""
    reports = []
    for name, build in OP_REGISTRY.items():
        rng = np.random.default_rng(OP_CHECK_SEED)
        fn, inputs = build(rng)
        reports.append(grad_check(fn, inputs, step=step, tolerance=tolerance, name=name, rng=rng))
    return reports
