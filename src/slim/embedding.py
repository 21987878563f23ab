"""Two-layer substructure encoder and the neighborhood co-occurrence loss.

The encoder maps substructure rows to a d-dimensional latent space,
H = act(act(Z T1 + b1) T2 + b2). The co-occurrence loss is a full softmax
over the nodes of one graph: connected substructures are pushed to have
large inner products relative to everything else in that graph. Both run
over the rows of a whole batch of graphs at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ACTIVATIONS = {"sigmoid": ad.sigmoid, "tanh": ad.tanh}


@dataclass
class EncoderParams:
    t1: Tensor
    b1: Tensor
    t2: Tensor
    b2: Tensor
    activation: str = "sigmoid"

    def tensors(self) -> list[Tensor]:
        return [self.t1, self.b1, self.t2, self.b2]


def scaled_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; fan_in is the first axis."""
    bound = 1.0 / math.sqrt(shape[0])
    return rng.uniform(-bound, bound, shape)


def init_encoder(width_in: int, hidden: int, latent: int,
                 rng: np.random.Generator, activation: str = "sigmoid") -> EncoderParams:
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}")
    return EncoderParams(
        t1=Tensor(scaled_uniform(rng, (width_in, hidden)), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        t2=Tensor(scaled_uniform(rng, (hidden, latent)), requires_grad=True),
        b2=Tensor(np.zeros(latent), requires_grad=True),
        activation=activation,
    )


def encode(z: Tensor, params: EncoderParams) -> Tensor:
    """Differentiable encoder forward pass; rows of z map independently."""
    act = ACTIVATIONS[params.activation]
    h1 = act(ad.add(ad.matmul(z, params.t1), params.b1))
    return act(ad.add(ad.matmul(h1, params.t2), params.b2))


def encode_values(z: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Tape-free encoder forward; a reference for tests and demos."""
    return encode(ad.constant(z), params).value


def cooccurrence_loss(h: np.ndarray, adjacency: np.ndarray) -> tuple[float, np.ndarray]:
    """Negated co-occurrence log-likelihood of one graph, and the row softmax.

    For every directed neighbor pair (i, j), the log-probability of j under a
    softmax over all nodes of the same graph (including i) is accumulated; the
    loss is the negated sum, so it is 0 for graphs without edges and positive
    otherwise. The softmax P of the scores H H' is returned for the backward.

    One n x n buffer holds the shifted scores z, then exp(z), then P. P is
    the quotient exp(z) / sum_j exp(z) of the plain formula, formed by the
    same ufuncs on the same values, so it is bit-identical to it. The loss
    -sum_ij A_ij (z_ij - log s_i) is regrouped as sum_i deg_i log s_i -
    sum_ij A_ij z_ij: z <= 0 and s_i >= 1, so both terms are non-negative
    and their difference cancels nothing.
    """
    if h.shape[0] != adjacency.shape[0]:
        raise ValueError("embedding row count must match node count")
    z = h @ h.T
    z -= z.max(axis=1, keepdims=True)
    link = np.vdot(adjacency, z)
    np.exp(z, out=z)
    sums = z.sum(axis=1, keepdims=True)
    z /= sums
    return float(adjacency.sum(axis=1) @ np.log(sums[:, 0]) - link), z


def cooccurrence_op(h: Tensor, bounds: Sequence[tuple[int, int]],
                    edges: Sequence[np.ndarray]) -> Tensor:
    """Sum of ``cooccurrence_loss`` over the graphs stacked in ``h``.

    Graph i owns the rows ``bounds[i]`` and has the directed edge list
    ``edges[i]`` (``Graph.edges``). One tape node: per graph it keeps only
    the softmax P, since dL/dS = deg P - A for the scores S = H H' and
    dL/dH = (dS + dS') H. The backward forms deg P - A in edge form, by
    subtracting 1 at each edge, which is bit-identical to the dense
    difference.
    """
    hv = h.value
    ad._check_finite("cooccurrence_op", hv)
    total, probs = 0.0, []
    for (r0, r1), (src, dst) in zip(bounds, edges, strict=True):
        # a 0/1 matrix scattered for this call only: the benchmark's counters
        # read it from cooccurrence_loss(h, adjacency), so the edge-form
        # forward waits for the next change to the benchmark
        adjacency = np.zeros((r1 - r0, r1 - r0))
        adjacency[src, dst] = 1.0
        loss, p = cooccurrence_loss(hv[r0:r1], adjacency)
        total += loss
        probs.append(p)

    def backward(g):
        dh = np.zeros_like(hv)
        for (r0, r1), (src, dst), p in zip(bounds, edges, probs):
            ds = np.bincount(src, minlength=r1 - r0)[:, None] * p
            ds[src, dst] -= 1.0
            dh[r0:r1] = (ds + ds.T) @ hv[r0:r1]
        h._accumulate(g * dh)

    return ad._make(total, (h,), backward)


def _cooccurrence_op_case(rng):
    """Gradient-check input: a 5-node graph, an edgeless pair, a 3-node
    path and a single node; rows 7 and 8 belong to a graph the op does not
    see."""
    a = np.triu(rng.random((5, 5)) < 0.5, 1)
    path = np.eye(3, k=1) + np.eye(3, k=-1)
    edges = [np.array(np.nonzero(m)) for m in (a | a.T, np.zeros((2, 2)), path, np.zeros((1, 1)))]
    bounds = [(0, 5), (5, 7), (9, 12), (12, 13)]
    return lambda h: cooccurrence_op(h, bounds, edges), [rng.standard_normal((13, 3))]


ad.OP_REGISTRY["cooccurrence"] = _cooccurrence_op_case
