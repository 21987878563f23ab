"""Identity-preserving graph pooling.

Instead of collapsing a graph into one vector, the soft assignment W projects
per-node structure onto the K landmarks:

  p       landmark densities, column sums of W           (K,)
  M       mean node-type profile per landmark            (c, K)
  C       landmark interaction mass, W' A W              (K, K)
  C_norm  interaction normalized by densities            (K, K)

All quantities are permutation invariant because node identity enters only
through sums over rows. One per-graph kernel, ``pool_graph``, computes them
from the graph's directed edge list instead of A: with S = diag(p)^-1
(guarded), C_norm = S W' A W S = (WS)' A (WS) is a sum over the edges of
outer products of density-scaled rows V = WS, so no n x n operand appears.
M is x'V and C is C_norm scaled back by the densities. The differentiable
op that pools a whole batch of graphs and ``slim inspect`` both call it.

C is symmetric (every graph is undirected), so the classifier reads only the
upper triangle of C_norm, row-major, with each off-diagonal entry scaled by
sqrt(2). The scale keeps the feature's euclidean norm equal to the Frobenius
norm of C_norm, and a linear layer on the triangle then takes the same SGD
steps as one on the full symmetric flattening.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DENSITY_EPS = 1e-8


@functools.lru_cache(maxsize=4)
def upper_triangle(k: int) -> tuple[np.ndarray, np.ndarray]:
    """K x K mask of the upper triangle (indexing with it reads the entries
    row-major, in the order of ``np.triu_indices(k)``) and the feature scale
    of each entry: 1 on the diagonal, sqrt(2) off it."""
    mask = np.triu(np.ones((k, k), dtype=bool))
    scale = np.where(np.eye(k, dtype=bool)[mask], 1.0, np.sqrt(2.0))
    mask.setflags(write=False)  # shared by every caller through the cache
    scale.setflags(write=False)
    return mask, scale


def feature_width(k: int, c: int, include_means: bool = False) -> int:
    return k * (k + 1) // 2 + (k + c * k if include_means else 0)


def _neighbour_sums(y: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A y for the adjacency whose directed edges are (src, dst): row i sums
    the rows y[j] of its edges (i, j), in edge order, and is 0 without edges."""
    k = y.shape[1]
    # one flat bin per (node, column): unlike np.add.reduceat over per-node
    # segments, this runs one inner loop for all edges and needs no care
    # for nodes without edges
    bins = (src[:, None] * k + np.arange(k)).ravel()
    return np.bincount(bins, weights=y[dst].ravel(), minlength=y.size).reshape(y.shape)


def pool_graph(w: np.ndarray, src: np.ndarray,
               dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool one graph: (p, s, V, C_norm) from its assignment ``w`` (n x K)
    and its directed edges (src, dst) of ``Graph.edges``, which hold every
    edge in both directions and no self-loops.

    p are the densities, s = 1/(p + eps) and V = W diag(s) the density-scaled
    rows. C_norm = V'AV is P + P' for P = V[i]'V[j] over the edges with
    i < j, so nothing is n x n. The means are M = x'V and the interaction
    is C = C_norm * outer(p + eps, p + eps).
    """
    p = w.sum(axis=0)
    s = 1.0 / (p + DENSITY_EPS)
    v = w * s
    upper = src < dst
    half = v[src[upper]].T @ v[dst[upper]]
    return p, s, v, half + half.T


def graph_feature_op(w: Tensor, bounds: Sequence[tuple[int, int]],
                     xs: Sequence[np.ndarray], edges: Sequence[np.ndarray],
                     include_means: bool = False) -> Tensor:
    """Differentiable pooled feature rows (len(bounds) x width) of a batch.

    ``w`` stacks the assignments of several graphs; graph i owns the rows
    ``bounds[i]`` and has node types ``xs[i]`` and the directed edge list
    ``edges[i]`` of ``Graph.edges``. Rows outside every bound get no
    gradient.

    Fused into a single tape node that runs ``pool_graph`` per graph. The
    backward needs only AV, the neighbour sums of V, so it keeps only s and
    V per graph.
    """
    wv = w.value
    k = wv.shape[1]
    mask, scale = upper_triangle(k)
    n_tri = len(scale)
    keep = w.requires_grad
    out = np.empty((len(bounds), feature_width(k, xs[0].shape[1], include_means)))
    saved = []
    for row, (r0, r1), x, (src, dst) in zip(out, bounds, xs, edges, strict=True):
        wg = wv[r0:r1]
        if wg.shape[0] != x.shape[0]:
            raise ValueError("assignment and graph disagree on node count")
        p, s, v, c_norm = pool_graph(wg, src, dst)
        row[:n_tri] = c_norm[mask] * scale
        if include_means:
            row[n_tri : n_tri + k] = p
            row[n_tri + k :] = (x.T @ v).reshape(-1)
        if keep:
            saved.append((s, v))

    def backward(g):
        dw = np.zeros_like(wv)
        g_tilde = np.zeros((k, k))
        for row, (r0, r1), x, (src, dst), (s, v) in zip(g, bounds, xs, edges, saved):
            g_tilde[mask] = row[:n_tri] * scale
            dv = _neighbour_sums(v, src, dst) @ (g_tilde + g_tilde.T)
            dp = 0.0
            if include_means:
                dv += x @ row[n_tri + k :].reshape(-1, k)
                dp = row[n_tri : n_tri + k]
            # V = W diag(s) and s = 1/(p + eps) with p the column sums of W
            ds = np.einsum("ik,ik->k", dv, wv[r0:r1])
            dw[r0:r1] += dv * s + (dp - (s * s) * ds)
        w._accumulate(dw)

    return ad._make(out, (w,), backward)


def _feature_op_case(rng, include_means):
    """Gradient-check input: graphs of 6 nodes, 1 node and 4 nodes with
    random edges; rows 7 and 8 belong to a graph that is not pooled. Then a
    5-node graph whose nodes 2 and 4 have no edges (one between nodes with
    edges, one after them) and an edgeless graph of 3 nodes."""
    bounds = [(0, 6), (6, 7), (9, 13), (13, 18), (18, 21)]
    xs = [np.eye(3)[rng.integers(0, 3, r1 - r0)] for r0, r1 in bounds]
    upper = [np.triu(rng.random((r1 - r0, r1 - r0)) < 0.4, 1) for r0, r1 in bounds[:3]]
    gapped = np.zeros((5, 5), dtype=bool)
    gapped[0, 1] = gapped[1, 3] = gapped[0, 3] = True
    upper += [gapped, np.zeros((3, 3), dtype=bool)]
    edges = [np.array(np.nonzero(a | a.T)) for a in upper]
    return (lambda w: graph_feature_op(w, bounds, xs, edges, include_means),
            [rng.uniform(0.1, 1.0, (21, 4))])


ad.OP_REGISTRY["graph_feature"] = lambda rng: _feature_op_case(rng, False)
ad.OP_REGISTRY["graph_feature_with_means"] = lambda rng: _feature_op_case(rng, True)
