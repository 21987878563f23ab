"""Two-layer substructure encoder and the neighborhood co-occurrence loss.

The encoder maps substructure rows to a d-dimensional latent space,
H = act(act(Z T1 + b1) T2 + b2). The co-occurrence loss is a full softmax
over the nodes of one graph: connected substructures are pushed to have
large inner products relative to everything else in that graph. Both run
over the rows of a whole batch of graphs at once.

The loss of a graph is sum_i deg_i lse_i - sum_edges h_src . h_dst, with
lse_i the log-sum-exp of row i of the scores H H'. Its gradient needs the
softmax P, which is n x n. A graph of at most ROW_BLOCK nodes forms P
whole: it is small, and this path is bit-identical to the dense formulas.
A larger graph is taken ROW_BLOCK score rows at a time (the online softmax
of Milakov & Gimelshein 2018, arXiv:1805.02867), so no n x n array exists,
and the large graphs of a batch run on a thread pool. The loss is one
scalar, whose upstream gradient is a single number, so dL/dH is formed
in the forward's own pass over each block of P, and the tape keeps only
each graph's rows of it. Nothing is recomputed in the backward, as
FlashAttention (Dao et al. 2022, arXiv:2205.14135) must, whose backward
needs a separate upstream gradient for every output.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import autodiff as ad
from . import landmarks
from .autodiff import Tensor
from .pooling import _neighbour_sums

if TYPE_CHECKING:
    from .model import ModelState

ACTIVATIONS = {"sigmoid": ad.sigmoid, "tanh": ad.tanh}
# graphs of more rows than this take the blocked co-occurrence kernel, a
# block of this many score rows at a time. Training on the large-graph
# benchmark data (800-1200 nodes, d = 32, 1 BLAS thread, a pool of 2 on 2
# cores, 3 runs each) took 3.9-4.4 s at 128, 3.7-4.3 s at 256 and
# 3.9-4.4 s at 512, within the host's drift, while the peak RSS rose
# 143-145 -> 149 -> 157 MB: each doubling adds a block per pool thread
ROW_BLOCK = 256


def scaled_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; fan_in is the first axis."""
    bound = 1.0 / math.sqrt(shape[0])
    return rng.uniform(-bound, bound, shape)


def encode(z: Tensor, state: ModelState) -> Tensor:
    """Differentiable encoder forward pass of ``state``; rows of z map
    independently."""
    act = ACTIVATIONS[state.config.activation]
    h1 = act(ad.dense(z, state.t1, state.b1))
    return act(ad.dense(h1, state.t2, state.b2))


def encode_values(z: np.ndarray, state: ModelState) -> np.ndarray:
    """Tape-free encoder forward; a reference for tests and demos."""
    return encode(ad.constant(z), state).value


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


def _blocked_cooccurrence(h: np.ndarray, src: np.ndarray, dst: np.ndarray,
                          dh: np.ndarray | None) -> float:
    """``cooccurrence_loss`` of one graph from its directed edges, formed
    ``ROW_BLOCK`` score rows at a time; with ``dh``, dL/dH is written into
    it in the same pass over each block.

    Each block of scores S_b = H_b H' is shifted by its row maxima m, then
    exponentiated in place and summed. The loss keeps the regrouping of
    ``cooccurrence_loss``: sum_i deg_i log(sums_i) minus the sum over the
    edges of the shifted scores h_src . h_dst - m_src, which are all <= 0,
    so nothing cancels. dL/dH is (deg P - A) H + (deg P - A)' H: ``dh``
    starts at -2 A H (A is symmetric, so A' H = A H), and each block is
    then scaled in place to deg_b P_b = e_b deg_b / sums_b, which adds its
    rows of the first product and its share of the second.
    """
    n = len(h)
    deg = np.bincount(src, minlength=n)
    dots = np.einsum("ij,ij->i", h[src], h[dst])
    rowmax, logsums = np.empty(n), np.empty(n)
    if dh is not None:
        np.multiply(_neighbour_sums(h, src, dst), -2.0, out=dh)
    for r in range(0, n, ROW_BLOCK):
        s = h[r:r + ROW_BLOCK] @ h.T
        m = s.max(axis=1)
        s -= m[:, None]
        np.exp(s, out=s)
        sums = s.sum(axis=1)
        rowmax[r:r + ROW_BLOCK] = m
        logsums[r:r + ROW_BLOCK] = np.log(sums)
        if dh is not None:
            s *= (deg[r:r + ROW_BLOCK] / sums)[:, None]
            dh[r:r + ROW_BLOCK] += s @ h
            dh += s.T @ h[r:r + ROW_BLOCK]
    return float(deg @ logsums - (dots - rowmax[src]).sum())


def cooccurrence_op(h: Tensor, bounds: Sequence[tuple[int, int]],
                    edges: Sequence[np.ndarray]) -> Tensor:
    """Sum of ``cooccurrence_loss`` over the graphs stacked in ``h``.

    Graph i owns the rows ``bounds[i]`` and has the directed edge list
    ``edges[i]`` (``Graph.edges``: every edge in both directions). One tape
    node, with dL/dS = deg P - A for the scores S = H H' and
    dL/dH = (dS + dS') H. The op has one scalar output, so when ``h``
    requires grad dL/dH is formed here, in the same pass over the scores as
    the loss, and the backward only scales it by the upstream gradient. The
    tape keeps it as one array per graph: one batch-sized array made here
    would stay on the heap under the rest of the forward's temporaries
    until the backward, and on small graphs glibc then trimmed and regrew
    the heap more often. How a graph is computed depends on its size:

    - at most ``ROW_BLOCK`` rows: ``cooccurrence_loss`` on a 0/1 matrix
      scattered for this call, on the calling thread, then deg P - A in
      edge form, by subtracting 1 at each edge, which is bit-identical to
      the dense difference.
    - more rows: ``_blocked_cooccurrence``, a ROW_BLOCK x n block of scores
      at a time, so no n x n array exists. The blocked graphs of a batch
      run on ``_thread_map``'s pool; their losses are summed on the
      calling thread in graph order, so the result does not depend on the
      CPU count.
    """
    hv = h.value
    ad._check_finite("cooccurrence_op", hv)
    losses = [0.0] * len(bounds)
    grads = []   # (r0, r1, dL/dH of rows r0:r1) per graph, when h requires grad
    blocked = []
    for i, ((r0, r1), (src, dst)) in enumerate(zip(bounds, edges, strict=True)):
        if r1 - r0 > ROW_BLOCK:
            # its dL/dH is made here: made on a pool thread, it would come
            # from that thread's malloc arena
            blocked.append((i, np.empty((r1 - r0, hv.shape[1])) if h.requires_grad else None))
            continue
        # a 0/1 matrix scattered for this call only: the benchmark's counters
        # read it from cooccurrence_loss(h, adjacency)
        adjacency = np.zeros((r1 - r0, r1 - r0))
        adjacency[src, dst] = 1.0
        losses[i], ds = cooccurrence_loss(hv[r0:r1], adjacency)
        if h.requires_grad:
            ds *= np.bincount(src, minlength=r1 - r0)[:, None]
            ds[src, dst] -= 1.0
            grads.append((r0, r1, (ds + ds.T) @ hv[r0:r1]))

    def blocked_graph(task):
        i, dh = task
        r0, r1 = bounds[i]
        return _blocked_cooccurrence(hv[r0:r1], *edges[i], dh)

    for (i, dh), loss in zip(blocked, landmarks._thread_map(blocked_graph, blocked,
                                                             len(blocked))):
        losses[i] = loss
        if dh is not None:
            grads.append((*bounds[i], dh))
    total = 0.0
    for loss in losses:
        total += loss

    def backward(g):
        dh = np.zeros_like(hv)
        for r0, r1, rows in grads:
            dh[r0:r1] = rows
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
