"""Two-layer substructure encoder and the neighborhood co-occurrence loss.

The encoder maps substructure rows to a d-dimensional latent space,
H = act(act(Z T1 + b1) T2 + b2). The co-occurrence loss is a full softmax
over the nodes of one graph: connected substructures are pushed to have
large inner products relative to everything else in that graph. Both run
over the rows of a whole batch of graphs at once.

The loss of a graph is sum_i deg_i lse_i - sum_edges h_src . h_dst, with
lse_i the log-sum-exp of row i of the scores H H'. Its gradient needs the
softmax P, which is n x n. A graph of at most ROW_BLOCK nodes forms P whole
and keeps it on the tape: it is small, and this path is bit-identical to
the dense formulas. A larger graph is taken ROW_BLOCK score rows at a time
(the online softmax of Milakov & Gimelshein 2018, arXiv:1805.02867): the
tape keeps its n log-sum-exps, and the backward recomputes each block of P
from them, as FlashAttention does (Dao et al. 2022, arXiv:2205.14135). No
n x n array exists, and the large graphs of a batch run on a thread pool.
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
# graphs of more rows than this take the blocked co-occurrence kernels, a
# block of this many score rows at a time. Training on the large-graph
# benchmark data (800-1200 nodes, d = 32, 1 BLAS thread, a pool of 2 on 2
# cores, 3 runs each) took 7.9-9.3 s at 128, 7.6-8.4 s at 256 and
# 8.0-8.1 s at 512, within the host's drift, while the peak RSS rose
# 142 -> 147 -> 156 MB: each doubling adds a block per pool thread
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


def _blocked_loss(h: np.ndarray, src: np.ndarray,
                  dst: np.ndarray) -> tuple[float, np.ndarray]:
    """``cooccurrence_loss`` of one graph from its directed edges, and the
    log-sum-exp lse_i of every score row, formed ``ROW_BLOCK`` rows at a time.

    Each block of scores S_b = H_b H' is shifted by its row maxima m, then
    exponentiated in place and summed; lse = m + log(sums). The loss keeps
    the regrouping of ``cooccurrence_loss``: sum_i deg_i log(sums_i) minus
    the sum over the edges of the shifted scores h_src . h_dst - m_src,
    which are all <= 0, so nothing cancels.
    """
    n = len(h)
    rowmax, logsums = np.empty(n), np.empty(n)
    for r in range(0, n, ROW_BLOCK):
        s = h[r:r + ROW_BLOCK] @ h.T
        m = s.max(axis=1)
        s -= m[:, None]
        np.exp(s, out=s)
        rowmax[r:r + ROW_BLOCK] = m
        logsums[r:r + ROW_BLOCK] = np.log(s.sum(axis=1))
    link = (np.einsum("ij,ij->i", h[src], h[dst]) - rowmax[src]).sum()
    loss = float(np.bincount(src, minlength=n) @ logsums - link)
    return loss, rowmax + logsums


def _blocked_grad(h: np.ndarray, src: np.ndarray, dst: np.ndarray,
                  lse: np.ndarray, dh: np.ndarray):
    """Write dL/dH of ``_blocked_loss`` into ``dh``: (deg P - A) H +
    (deg P - A)' H, with P recomputed ``ROW_BLOCK`` rows at a time.

    A H is taken once over the edges (A is symmetric, so A' H = A H). Rows
    without edges add nothing to deg P. For the others, the block deg_b P_b
    = exp(H_b H' - lse_b + log deg_b) comes out of one product,
    [H_b, log deg_b - lse_b] [H, 1]', so only exp passes over it before
    the two products with H.
    """
    np.multiply(_neighbour_sums(h, src, dst), -2.0, out=dh)
    deg = np.bincount(src, minlength=len(h))
    rows = np.flatnonzero(deg)
    lhs = np.column_stack([h[rows], np.log(deg[rows]) - lse[rows]])
    rhs = np.column_stack([h, np.ones(len(h))])
    for r in range(0, len(rows), ROW_BLOCK):
        p = lhs[r:r + ROW_BLOCK] @ rhs.T
        np.exp(p, out=p)
        dh[rows[r:r + ROW_BLOCK]] += p @ h
        dh += p.T @ h[rows[r:r + ROW_BLOCK]]


def cooccurrence_op(h: Tensor, bounds: Sequence[tuple[int, int]],
                    edges: Sequence[np.ndarray]) -> Tensor:
    """Sum of ``cooccurrence_loss`` over the graphs stacked in ``h``.

    Graph i owns the rows ``bounds[i]`` and has the directed edge list
    ``edges[i]`` (``Graph.edges``: every edge in both directions). One tape
    node, with dL/dS = deg P - A for the scores S = H H' and
    dL/dH = (dS + dS') H. How a graph is computed depends on its size:

    - at most ``ROW_BLOCK`` rows: ``cooccurrence_loss`` on a 0/1 matrix
      scattered for this call, on the calling thread. The tape keeps the
      graph's softmax P (at most ROW_BLOCK^2 floats), and the backward forms
      deg P - A in edge form, by subtracting 1 at each edge, which is
      bit-identical to the dense difference. Recomputing P would cost more
      than keeping it, and these graphs stay bit-identical to the dense form.
    - more rows: ``_blocked_loss`` and ``_blocked_grad``, a ROW_BLOCK x n
      block of scores at a time. The tape keeps only the n log-sum-exps,
      and the backward recomputes each block of P from them, so no n x n
      array exists. The blocked graphs of a batch run on ``_thread_map``'s
      pool, each writing its own rows of the gradient; their losses are
      summed on the calling thread in graph order, so the result does not
      depend on the CPU count.
    """
    hv = h.value
    ad._check_finite("cooccurrence_op", hv)
    # per graph (loss, P) on the exact path, or (loss, lse) when blocked
    saved: list = [None] * len(bounds)
    blocked = []
    for i, ((r0, r1), (src, dst)) in enumerate(zip(bounds, edges, strict=True)):
        if r1 - r0 > ROW_BLOCK:
            blocked.append(i)
            continue
        # a 0/1 matrix scattered for this call only: the benchmark's counters
        # read it from cooccurrence_loss(h, adjacency)
        adjacency = np.zeros((r1 - r0, r1 - r0))
        adjacency[src, dst] = 1.0
        saved[i] = cooccurrence_loss(hv[r0:r1], adjacency)

    def blocked_loss(i):
        r0, r1 = bounds[i]
        return _blocked_loss(hv[r0:r1], *edges[i])

    for i, out in zip(blocked, landmarks._thread_map(blocked_loss, blocked, len(blocked))):
        saved[i] = out
    total = 0.0
    for loss, _ in saved:
        total += loss

    def backward(g):
        dh = np.zeros_like(hv)

        def blocked_grad(i):
            r0, r1 = bounds[i]
            _blocked_grad(hv[r0:r1], *edges[i], saved[i][1], dh[r0:r1])

        landmarks._thread_map(blocked_grad, blocked, len(blocked))
        for i, ((r0, r1), (src, dst), (_, p)) in enumerate(zip(bounds, edges, saved)):
            if i in blocked:
                continue
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
