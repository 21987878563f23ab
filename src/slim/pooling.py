"""Identity-preserving graph pooling.

Instead of collapsing a graph into one vector, the soft assignment W projects
per-node structure onto the K landmarks:

  p       landmark densities, column sums of W           (K,)
  M       mean node-type profile per landmark            (c, K)
  C       landmark interaction mass, W' A W              (K, K)
  C_norm  interaction normalized by densities            (K, K)

All quantities are permutation invariant because node identity enters only
through sums over rows. The plain-array versions here are the reference for
the fused differentiable op that pools a whole batch of graphs.

C is symmetric (every graph is undirected), so the classifier reads only the
upper triangle of C_norm, row-major, with each off-diagonal entry scaled by
sqrt(2). The scale keeps the feature's euclidean norm equal to the Frobenius
norm of C_norm, and a linear layer on the triangle then takes the same SGD
steps as one on the full symmetric flattening.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DENSITY_EPS = 1e-8


@dataclass(frozen=True)
class PooledFeatures:
    p: np.ndarray
    m: np.ndarray
    c: np.ndarray
    c_norm: np.ndarray


def density(w: np.ndarray) -> np.ndarray:
    """Soft node count per landmark; sums to the node count."""
    return w.sum(axis=0)


def landmark_means(x: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c x K matrix whose k-th column is the mean node-type profile of landmark k."""
    return (x.T @ w) / (p + DENSITY_EPS)


def interaction(w: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """K x K soft count of edges between landmark masses: W' A W."""
    if w.shape[0] != adjacency.shape[0]:
        raise ValueError("assignment and adjacency disagree on node count")
    return w.T @ adjacency @ w


def normalized_interaction(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Density-normalized interaction diag(p)^-1 C diag(p)^-1 (guarded)."""
    s = 1.0 / (p + DENSITY_EPS)
    return c * np.outer(s, s)


def pooled_features(x: np.ndarray, w: np.ndarray, adjacency: np.ndarray) -> PooledFeatures:
    p = density(w)
    c = interaction(w, adjacency)
    return PooledFeatures(
        p=p,
        m=landmark_means(x, w, p),
        c=c,
        c_norm=normalized_interaction(c, p),
    )


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


def graph_feature(pf: PooledFeatures, include_means: bool = False) -> np.ndarray:
    """Classifier feature vector: the scaled upper triangle of C_norm.

    With ``include_means`` the densities and flattened landmark means are
    appended (length K(K+1)/2 + K + c*K instead of K(K+1)/2).
    """
    mask, scale = upper_triangle(pf.c_norm.shape[0])
    tri = pf.c_norm[mask] * scale
    if include_means:
        return np.concatenate([tri, pf.p, pf.m.reshape(-1)])
    return tri


def feature_width(k: int, c: int, include_means: bool = False) -> int:
    return k * (k + 1) // 2 + (k + c * k if include_means else 0)


def graph_feature_op(w: Tensor, bounds: Sequence[tuple[int, int]],
                     xs: Sequence[np.ndarray], adjacencies: Sequence[np.ndarray],
                     include_means: bool = False) -> Tensor:
    """Differentiable pooled feature rows (len(bounds) x width) of a batch.

    ``w`` stacks the assignments of several graphs; graph i owns the rows
    ``bounds[i]`` and has node types ``xs[i]`` and adjacency
    ``adjacencies[i]``. Rows outside every bound get no gradient.

    Fused into a single tape node: the K x K intermediates dominate time and
    memory at large K, so the backward works directly on the upstream rows
    instead of composing elementwise ops. Without a backward the cheaper
    (W'A)W order is used and A W is not kept.
    """
    wv = w.value
    k = wv.shape[1]
    mask, scale = upper_triangle(k)
    n_tri = len(scale)
    keep = w.requires_grad
    out = np.empty((len(bounds), feature_width(k, xs[0].shape[1], include_means)))
    saved = []
    for row, (r0, r1), x, adjacency in zip(out, bounds, xs, adjacencies, strict=True):
        wg = wv[r0:r1]
        if wg.shape[0] != adjacency.shape[0]:
            raise ValueError("assignment and adjacency disagree on node count")
        p = wg.sum(axis=0)
        s = 1.0 / (p + DENSITY_EPS)
        aw = adjacency @ wg if keep else None
        c = wg.T @ aw if keep else (wg.T @ adjacency) @ wg
        row[:n_tri] = ((c * s) * s[:, None])[mask] * scale
        m0 = None
        if include_means:
            m0 = x.T @ wg
            row[n_tri : n_tri + k] = p
            row[n_tri + k :] = (m0 * s).reshape(-1)
        if keep:
            saved.append((s, aw, c, m0))

    def backward(g):
        dw = np.zeros_like(wv)
        g_tilde = np.zeros((k, k))
        for row, (r0, r1), x, (s, aw, c, m0) in zip(g, bounds, xs, saved):
            g_tilde[mask] = row[:n_tri] * scale
            g_c = (g_tilde * s) * s[:, None]
            t = g_tilde * c
            ds = t @ s + t.T @ s
            dp = 0.0
            if include_means:
                g_m = row[n_tri + k :].reshape(-1, k)
                ds = ds + (g_m * m0).sum(axis=0)
                dp = row[n_tri : n_tri + k]
            block = aw @ (g_c + g_c.T) + (dp - (s * s) * ds)
            if include_means:
                block += x @ (g_m * s)
            dw[r0:r1] += block
        w._accumulate(dw)

    return ad._make(out, (w,), backward)


def _feature_op_case(rng, include_means):
    """Gradient-check input: graphs of 6 nodes, 1 node and 4 nodes; rows 7
    and 8 belong to a graph that is not pooled."""
    bounds = [(0, 6), (6, 7), (9, 13)]
    xs = [np.eye(3)[rng.integers(0, 3, r1 - r0)] for r0, r1 in bounds]
    upper = [np.triu(rng.random((r1 - r0, r1 - r0)) < 0.4, 1) for r0, r1 in bounds]
    adjs = [(a | a.T).astype(float) for a in upper]
    return (lambda w: graph_feature_op(w, bounds, xs, adjs, include_means),
            [rng.uniform(0.1, 1.0, (13, 4))])


ad.OP_REGISTRY["graph_feature"] = lambda rng: _feature_op_case(rng, False)
ad.OP_REGISTRY["graph_feature_with_means"] = lambda rng: _feature_op_case(rng, True)
